package engine

import (
	"reflect"
	"testing"

	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

func testSpec(d, n int) Spec {
	return Spec{
		Sched:         ChimeraKey(d, n, 1, schedule.Direct),
		Model:         model.BERT48(),
		MicroBatch:    1,
		W:             1,
		AutoRecompute: true,
		Device:        sim.PizDaintNode(),
		Network:       sim.AriesNetwork(),
	}
}

// TestObserveRecordsEngineSeries: an instrumented engine populates the
// engine_ series — evaluate on miss, wait on hit, sweep and worker
// counters from ForEach, cache counters read through to the memo tables.
func TestObserveRecordsEngineSeries(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Workers(2), Observe(reg))
	spec := testSpec(4, 8)

	if out := e.Evaluate(spec); out.Err != nil {
		t.Fatal(out.Err)
	}
	e.Evaluate(spec) // hit
	e.Sweep([]Spec{testSpec(4, 12), testSpec(4, 16)})
	// No probes: both are closed-form, so the one replay counted below is
	// the free-region table's miss.
	if _, _, err := e.CriticalPath(ChimeraKey(4, 16, 1, schedule.Direct)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.CriticalPath(ChimeraKey(4, 8, 1, schedule.Direct)); err != nil {
		t.Fatal(err)
	}
	// (4, 4) and (4, 16) share the closed-form entry min(N, D) = 4.
	for _, n := range []int{4, 16, 2} {
		if _, err := e.Residency(ChimeraKey(4, n, 1, schedule.Direct)); err != nil {
			t.Fatal(err)
		}
	}
	// One free-region table, replayed once and then recalled.
	unit := schedule.CostModel{FUnit: 1000, BUnit: 2000}
	for range 2 {
		if _, err := e.FreeRegions(ChimeraKey(4, 8, 1, schedule.Direct), unit); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Histograms["engine_evaluate_seconds"].Count; got != 3 {
		t.Fatalf("evaluate count = %d, want 3 (one per distinct spec)", got)
	}
	if got := snap.Histograms["engine_memo_wait_seconds"].Count; got != 1 {
		t.Fatalf("wait count = %d, want 1 (the repeated spec)", got)
	}
	if got := snap.Histograms["engine_sweep_seconds"].Count; got != 1 {
		t.Fatalf("sweep count = %d, want 1", got)
	}
	if got := snap.Counters[`engine_cache_hits_total{table="outcomes"}`]; got != 1 {
		t.Fatalf("outcome cache hits = %d, want 1", got)
	}
	if got := snap.Counters[`engine_cache_misses_total{table="outcomes"}`]; got != 3 {
		t.Fatalf("outcome cache misses = %d, want 3", got)
	}
	for path, want := range map[string]uint64{"extended": 0, "full": 1, "refused": 0} {
		if got := snap.Counters[`engine_replays_total{path="`+path+`"}`]; got != want {
			t.Fatalf("%s replays = %d, want %d", path, got, want)
		}
	}
	var busy uint64
	for k, v := range snap.Counters {
		if len(k) > len("engine_worker_busy") && k[:len("engine_worker_busy")] == "engine_worker_busy" {
			busy += v
		}
	}
	if busy == 0 {
		t.Fatal("no worker busy time recorded after a sweep")
	}
	if snap.Gauges[`engine_cache_entries{table="outcomes"}`] != 3 {
		t.Fatalf("outcome entries gauge = %g, want 3", snap.Gauges[`engine_cache_entries{table="outcomes"}`])
	}
	for series, want := range map[string]uint64{
		`engine_cache_hits_total{table="residencies"}`:      1,
		`engine_cache_misses_total{table="residencies"}`:    2,
		`engine_cache_evictions_total{table="residencies"}`: 0,
		`engine_cache_hits_total{table="freeregions"}`:      1,
		`engine_cache_misses_total{table="freeregions"}`:    1,
		`engine_cache_evictions_total{table="freeregions"}`: 0,
	} {
		if got, ok := snap.Counters[series]; !ok || got != want {
			t.Fatalf("%s = %d (registered %v), want %d", series, got, ok, want)
		}
	}
	for table, want := range map[string]float64{"residencies": 2, "freeregions": 1} {
		if got, ok := snap.Gauges[`engine_cache_entries{table="`+table+`"}`]; !ok || got != want {
			t.Fatalf("%s entries gauge = %g (registered %v), want %g", table, got, ok, want)
		}
	}
	// Bounded tables evict like the other three.
	breg := obs.NewRegistry()
	bounded := New(Workers(1), Capacity(1), Observe(breg))
	for _, n := range []int{2, 4} {
		if _, err := bounded.Residency(ChimeraKey(4, n, 1, schedule.Direct)); err != nil {
			t.Fatal(err)
		}
		if _, err := bounded.FreeRegions(ChimeraKey(4, n, 1, schedule.Direct), unit); err != nil {
			t.Fatal(err)
		}
	}
	for _, table := range []string{"residencies", "freeregions"} {
		if got := breg.Snapshot().Counters[`engine_cache_evictions_total{table="`+table+`"}`]; got != 1 {
			t.Fatalf("Capacity(1) %s evictions = %d, want 1", table, got)
		}
	}
	if r := snap.Gauges["engine_cache_hit_ratio"]; r <= 0 || r >= 1 {
		t.Fatalf("hit ratio = %g, want in (0, 1)", r)
	}
}

// TestObserveOutputsIdentical: instrumentation must not perturb results —
// the same sweep on an instrumented and a plain engine returns deeply equal
// outcomes, and the same critical paths served the same way (closed-form,
// so neither engine replays). This is the unit-level half of the CI
// byte-identical gate.
func TestObserveOutputsIdentical(t *testing.T) {
	specs := []Spec{testSpec(2, 4), testSpec(4, 8), testSpec(4, 4)}
	pe, ie := New(Workers(1)), New(Workers(1), Observe(obs.NewRegistry()))
	plain, instr := pe.Sweep(specs), ie.Sweep(specs)
	for _, n := range []int{8, 16, 19} {
		key := ChimeraKey(4, n, 1, schedule.Direct)
		pcf, pcb, perr := pe.CriticalPath(key)
		icf, icb, ierr := ie.CriticalPath(key)
		if perr != nil || ierr != nil || pcf != icf || pcb != icb {
			t.Fatalf("N=%d: critical path (%d, %d, %v) plain, (%d, %d, %v) instrumented", n, pcf, pcb, perr, icf, icb, ierr)
		}
	}
	if p, i := pe.Stats(), ie.Stats(); p != i || p.ReplaysExtended != 0 || p.ReplaysFull != 0 {
		t.Fatalf("stats differ or closed-form critical paths replayed:\nplain %+v\ninstr %+v", p, i)
	}
	for i := range specs {
		if plain[i].Err != nil || instr[i].Err != nil {
			t.Fatalf("spec %d errored: %v / %v", i, plain[i].Err, instr[i].Err)
		}
		if !reflect.DeepEqual(plain[i].Result, instr[i].Result) {
			t.Fatalf("spec %d: instrumented result differs from plain", i)
		}
	}
}

// TestObserveNilRegistry: Observe(nil) leaves the engine uninstrumented and
// fully functional.
func TestObserveNilRegistry(t *testing.T) {
	e := New(Observe(nil))
	if e.met != nil {
		t.Fatal("nil registry produced metric handles")
	}
	if out := e.Evaluate(testSpec(2, 4)); out.Err != nil {
		t.Fatal(out.Err)
	}
}
