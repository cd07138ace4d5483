package fleet

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/model"
)

// TestForkSharesCurvesUnderRace: a live sim and its what-if forks apply
// concurrently (the controller ingests hypotheses outside its state lock)
// and all read and fill the same plan curves. Starting from nearly cold
// curves on a four-worker engine — so slots are resolved by racing
// goroutines, inside pool bodies — every sim must end exactly where its
// serial twin does. Run under -race this is the memory-model
// check on the curve's atomic publication.
func TestForkSharesCurvesUnderRace(t *testing.T) {
	sc := ElasticScenario{Cluster: pizDaintCluster(32, nil), Jobs: smallMix(), MigrationPenalty: 10}
	const shared = 2 // batches every sim has in common before the fork
	// Sim 0 applies the live storm; each hypothesis is the same churn with a
	// different third of the later arrivals dropped and the rest resized, so
	// node ids stay valid while the residents — and the plans — differ.
	storms := make([][][]Event, 4)
	storms[0] = stormBatches(t, sc, 300, 90, 4e4, 0, 0)
	for i := 1; i < len(storms); i++ {
		arrivals := 0
		for b, batch := range storms[0] {
			var kept []Event
			for _, ev := range batch {
				if ev.Kind == EvArrival && b >= shared {
					if arrivals++; arrivals%3 == i-1 {
						continue
					}
					ev.Work *= float64(i)
				}
				kept = append(kept, ev)
			}
			if len(kept) > 0 {
				storms[i] = append(storms[i], kept)
			}
		}
	}
	run := func(e *engine.Engine, concurrent bool) []ElasticResult {
		a := NewAllocator(e)
		live, err := a.NewElasticSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range storms[0][:shared] {
			if err := live.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
		sims := []*ElasticSim{live, live.Fork(), live.Fork(), live.Fork()}
		out := make([]ElasticResult, len(sims))
		errs := make([]error, len(sims))
		var wg sync.WaitGroup
		for i, s := range sims {
			apply := func() {
				for _, batch := range storms[i][shared:] {
					if errs[i] = s.Ingest(batch); errs[i] != nil {
						return
					}
				}
				out[i] = s.Snapshot()
			}
			if !concurrent {
				apply()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				apply()
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("sim %d: %v", i, err)
			}
		}
		return out
	}
	want := run(engine.New(engine.Workers(1)), false)
	got := run(engine.New(engine.Workers(4)), true)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sim %d: concurrent run on shared cold curves differs from the serial run:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestGreedyGrowSameJobColdCurves: two instances of one job bid on one
// curve, and a third job asks for the very same plans through a curve of
// its own, all cold, on a four-worker engine — from two goroutines at once.
// The pool bodies that resolve the slots must neither wait on each other's
// plans (TestPlanNeverWaitsForAnotherPlanner) nor disagree.
func TestGreedyGrowSameJobColdCurves(t *testing.T) {
	c := pizDaintCluster(24, nil)
	job := Job{Name: "twin", Model: model.BERT48(), MiniBatch: 64}
	capped := job
	capped.Name, capped.MaxNodes = "twin-capped", 8
	grow := func(a *Allocator, bids []bidder) [][]node {
		shares, _, err := a.greedyGrow(bids, make([][]node, len(bids)), sortedPool(c), nil)
		if err != nil {
			t.Error(err)
		}
		return shares
	}
	bidders := func() []bidder {
		twin := newPlanCurve(c, job)
		return []bidder{{twin, 2}, {twin, 1}, {newPlanCurve(c, capped), 1.5}}
	}
	want := grow(NewAllocator(engine.New(engine.Workers(1))), bidders())
	for rep := 0; rep < 3; rep++ {
		a := NewAllocator(engine.New(engine.Workers(4)))
		bids := bidders()
		got := make([][][]node, 2)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = grow(a, bids)
			}()
		}
		wg.Wait()
		for g := range got {
			if !reflect.DeepEqual(got[g], want) {
				t.Fatalf("rep %d goroutine %d: shares %v, serial run %v", rep, g, got[g], want)
			}
		}
	}
}

// TestPlanNeverWaitsForAnotherPlanner: Allocator.plan does not single-flight.
// A caller that is not a pool body waits for a slot token inside PlanOn; if
// it waited there as the owner of an in-flight entry, a body that holds the
// token and asks for the same plan would park on that entry for good. The
// body below holds a one-slot engine's only token while an outside goroutine
// starts the same plan first: it must plan for itself and return, and the
// outsider after it. (The sleep only gives the outsider time to get stuck; a
// slow machine can only make this test pass.)
func TestPlanNeverWaitsForAnotherPlanner(t *testing.T) {
	e := engine.New(engine.Workers(1))
	a := NewAllocator(e)
	job := Job{Name: "one", Model: model.BERT48(), MiniBatch: 64}
	req := newPlanCurve(pizDaintCluster(8, nil), job).request(4)
	var inside, outside planResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		var outsider sync.WaitGroup
		outsider.Add(1)
		e.ForEach(1, func(int) {
			go func() {
				defer outsider.Done()
				outside = a.plan(req)
			}()
			time.Sleep(20 * time.Millisecond)
			inside = a.plan(req)
		})
		outsider.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a pool body waited on a plan whose owner is waiting for the body's token")
	}
	if inside.err != nil || inside.pred == nil {
		t.Fatalf("plan inside the body: %+v", inside)
	}
	if !reflect.DeepEqual(inside, outside) {
		t.Fatalf("the two planners disagree:\n inside %+v\noutside %+v", inside.pred, outside.pred)
	}
}

// TestWarmScanAllocations is the allocation gate on the re-plan hot path: a
// scan over resolved curve slots allocates nothing, and one warm incremental
// re-plan of the scarce storm scenario (some fifty residents, most of them
// starved) stays within a fixed handful of slices — the state snapshot, the
// needy line-up, the free lists and the donor table.
func TestWarmScanAllocations(t *testing.T) {
	sc := stormScenario()
	a := NewAllocator(engine.New(engine.Workers(1)))
	batches := stormEpisode(t, sc, 0)
	s := ingestAll(t, a, sc, batches[:len(batches)*3/4])
	if len(s.active) < 30 {
		t.Fatalf("scenario holds only %d residents", len(s.active))
	}

	in := s.active[0]
	nodes := s.present[:in.curve.points[len(in.curve.points)-1]]
	if _, err := a.jobValue(in.curve, nodes); err != nil { // resolve every slot once
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		var st prefixScan
		if err := a.scan(in.curve, &st, nodes[:Quantum]); err != nil {
			t.Fatal(err)
		}
		resumed := st.fork()
		if err := a.scan(in.curve, &resumed, nodes[Quantum:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a scan over resolved slots allocates %v times", n)
	}

	if err := s.ReplanNow(); err != nil { // settle: the next re-plans move nothing
		t.Fatal(err)
	}
	const maxAllocs = 40
	if n := testing.AllocsPerRun(20, func() {
		if err := s.ReplanNow(); err != nil {
			t.Fatal(err)
		}
	}); n > maxAllocs {
		t.Fatalf("one warm incremental re-plan of %d residents allocates %v times, want ≤ %d", len(s.active), n, maxAllocs)
	} else {
		t.Logf("warm incremental re-plan of %d residents: %v allocations", len(s.active), n)
	}
}

// TestStormEpisodeCounts pins the repository benchmark's seven storm
// episodes in process, each on a fresh allocator as the benchmark runs
// them: the re-plan work measure is unchanged by how values are read
// (727,734 job evaluations over 1,172 batches), the planner runs once per
// distinct (job, breakpoint) an episode touches (331 in all; the quantum
// walk also planned the 130 worker counts off the planner's grid) and is
// never asked again, and the bid counters still show a search that is
// almost all reuse.
func TestStormEpisodeCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("seven full episodes; single-threaded")
	}
	sc := stormScenario()
	var batches, evals int
	var hits, planned uint64
	for i := 0; i < 7; i++ {
		a := NewAllocator(engine.New(engine.Workers(1)))
		episode := stormEpisode(t, sc, i)
		s := ingestAll(t, a, sc, episode)
		batches += len(episode)
		evals += s.res.JobsEvaluated
		h, m := a.PlanStats()
		hits, planned = hits+h, planned+m
		if memoHits, _ := a.plans.Stats(); memoHits != 0 {
			t.Fatalf("episode %d: %d plan-memo hits — a resolved slot was looked up again", i, memoHits)
		}
	}
	if batches != 1172 || evals != 727734 || planned != 331 {
		t.Fatalf("batches %d, job evaluations %d, planner runs %d; want 1172, 727734, 331", batches, evals, planned)
	}
	t.Logf("bid hits %d, planner runs %d", hits, planned)
	if share := float64(hits) / float64(hits+planned); share < 0.99 {
		t.Fatalf("bid hit share %.4f, want ≥ 0.99 (%d hits, %d planner runs)", share, hits, planned)
	}
}
