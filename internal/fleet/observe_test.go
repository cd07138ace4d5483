package fleet

import (
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/obs"
)

// TestObserveFleetSeries: an instrumented allocator records allocation and
// re-plan metrics; the bid counters read through from PlanStats.
func TestObserveFleetSeries(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAllocator(engine.New(engine.Workers(1)))
	a.Observe(reg)

	req := Request{Cluster: pizDaintCluster(16, nil), Jobs: benchMix()}
	if _, err := a.Allocate(req); err != nil {
		t.Fatal(err)
	}
	res, err := a.SimulateElastic(elasticScenario(ReplanIncremental, 5))
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fleet_allocations_total"]; got != 1 {
		t.Fatalf("allocations = %d, want 1", got)
	}
	if got := snap.Histograms["fleet_allocate_seconds"].Count; got != 1 {
		t.Fatalf("allocate histogram count = %d, want 1", got)
	}
	if got := snap.Counters["fleet_replans_total"]; got != uint64(res.Reallocations) {
		t.Fatalf("replans = %d, want %d (ElasticResult.Reallocations)", got, res.Reallocations)
	}
	if got := snap.Histograms["fleet_replan_seconds"].Count; got != uint64(res.Reallocations) {
		t.Fatalf("replan histogram count = %d, want %d", got, res.Reallocations)
	}
	if got := snap.Counters["fleet_jobs_reevaluated_total"]; got != uint64(res.JobsEvaluated) {
		t.Fatalf("jobs reevaluated = %d, want %d (ElasticResult.JobsEvaluated)", got, res.JobsEvaluated)
	}
	hits := snap.Counters[`fleet_allocator_bids_total{result="hit"}`]
	misses := snap.Counters[`fleet_allocator_bids_total{result="miss"}`]
	wantHits, wantMisses := a.PlanStats()
	if hits != wantHits || misses != wantMisses {
		t.Fatalf("bids hit/miss = %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
	}
	if misses == 0 {
		t.Fatal("the greedy search made no plan bids")
	}
}

// TestObserveFleetIdentical: instrumentation must not change simulation
// results.
func TestObserveFleetIdentical(t *testing.T) {
	sc := elasticScenario(ReplanIncremental, 5)
	plain, err := NewAllocator(engine.New(engine.Workers(1))).SimulateElastic(sc)
	if err != nil {
		t.Fatal(err)
	}
	instr := NewAllocator(engine.New(engine.Workers(1)))
	instr.Observe(obs.NewRegistry())
	got, err := instr.SimulateElastic(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("instrumented elastic simulation differs from plain")
	}
}

// TestObserveFleetNil: Observe(nil) leaves the allocator uninstrumented.
func TestObserveFleetNil(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	a.Observe(nil)
	if a.met != nil {
		t.Fatal("nil registry produced metric handles")
	}
	if _, err := a.Allocate(Request{Cluster: pizDaintCluster(8, nil), Jobs: benchMix()[:1]}); err != nil {
		t.Fatal(err)
	}
}
