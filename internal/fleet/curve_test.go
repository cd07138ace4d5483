package fleet

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// TestForkSharesCurvesUnderRace: a live sim and its what-if forks apply
// concurrently (the controller ingests hypotheses outside its state lock)
// and all read and fill the same plan curves. Starting from nearly cold
// curves on a four-worker engine — so slots are resolved by racing
// goroutines — every sim must end exactly where its serial twin does. Run
// under -race this is the memory-model check on the curve's atomic
// publication.
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
// The goroutines that resolve the slots share each plan and must not
// disagree.
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

// TestFanOutBodiesNeverReenterPool pins ForEach's contract on every path
// that fans out: a cold plan batch (homogeneous and list-scheduled), a sweep,
// a planner-guided allocation on a straggled cluster and an elastic ingest,
// each on a fresh one-slot engine. The caller holds the only token while its
// bodies run, so a body that called ForEach on the same engine would wait for
// that token forever.
func TestFanOutBodiesNeverReenterPool(t *testing.T) {
	sc := stormScenario()
	batches := stormEpisode(t, sc, 0)[:20]
	het := pizDaintCluster(16, []float64{1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1.5})
	het.Scheduler = "auto"
	req := perfmodel.PlanRequest{Model: model.BERT48(), MiniBatch: 64, P: 16, Device: het.Device, Network: het.Network}
	listed := req
	listed.P, listed.Scheduler = 4, "auto"
	listed.SpeedFactors = sim.EncodeSpeedFactors([]float64{1, 2, 1, 1})
	paths := []struct {
		name string
		run  func(e *engine.Engine) error
	}{
		{"PlanBatchOn", func(e *engine.Engine) error {
			_, errs := perfmodel.PlanBatchOn(e, []perfmodel.PlanRequest{req, listed})
			return errors.Join(errs...)
		}},
		{"Sweep", func(e *engine.Engine) error {
			spec := engine.Spec{
				Sched: engine.ChimeraKey(4, 8, 1, schedule.Direct), Model: model.BERT48(),
				MicroBatch: 4, W: 2, AutoRecompute: true, Device: het.Device, Network: het.Network,
			}
			gpipe := spec
			gpipe.Sched = engine.ScheduleKey{Scheme: "gpipe", D: 4, N: 8}
			for _, o := range e.Sweep([]engine.Spec{spec, gpipe}) {
				if o.Err != nil {
					return o.Err
				}
			}
			return nil
		}},
		{"Allocate", func(e *engine.Engine) error {
			_, err := NewAllocator(e).Allocate(Request{Cluster: het, Jobs: sc.Jobs[:4], Policy: PlannerGuided})
			return err
		}},
		{"Ingest", func(e *engine.Engine) error {
			s, err := NewAllocator(e).NewElasticSim(sc)
			if err != nil {
				return err
			}
			for _, batch := range batches {
				if err := s.Ingest(batch); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- p.run(engine.New(engine.Workers(1))) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("did not return on a one-slot engine: a pool body called back into the pool")
			}
		})
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

// maxStormCurveReads is TestStormEpisodeCounts' ceiling on resolved curve
// slots read over the seven storm episodes: the count once each side of a
// preemption candidate was priced once per epoch (DESIGN.md §5).
const maxStormCurveReads = 58227

// TestStormEpisodeCounts pins the repository benchmark's seven storm
// episodes in process, each on a fresh allocator as the benchmark runs
// them: the re-plan work measure is unchanged by how values are read
// (727,734 job evaluations over 1,172 batches), the planner runs once per
// distinct (job, breakpoint) an episode touches (331 in all; the quantum
// walk also planned the 130 worker counts off the planner's grid) and is
// never asked again, and the searches read resolved curve slots at most
// 58,227 times. That is a ceiling, not a share: a search that stops
// re-reading a slot it has already read is faster, and must not fail a
// floor on hits/(hits+planned) while planner runs stay pinned above.
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
	t.Logf("curve reads %d, planner runs %d", hits, planned)
	if hits > maxStormCurveReads {
		t.Fatalf("%d curve reads over the seven episodes, want ≤ %d", hits, maxStormCurveReads)
	}
}
