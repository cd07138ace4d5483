package perfmodel

import (
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// goldenFirst is the first request of bench/golden/plan.json.
func goldenFirst() PlanRequest {
	return PlanRequest{
		Model: model.Config{Name: "bench-l24-h1280-s512", Layers: 24, Hidden: 1280, Heads: 20, Vocab: 50257, SeqLen: 512},
		P:     8, MiniBatch: 512, Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
	}
}

// TestPlanNeverBuildsLongSchedule: a cold homogeneous plan whose candidates
// all have N ≥ 3D is served by extended replays alone — two per candidate,
// Eq. 1's; the critical path is closed-form and replays nothing — and leaves
// no fixed-placement Chimera schedule of three or more units in the engine's
// memo; Prediction.N keeps the full N. Planning it again on the same engine
// replays once per candidate: the unit-cost free regions are memoized.
func TestPlanNeverBuildsLongSchedule(t *testing.T) {
	e := engine.New(engine.Workers(1))
	preds, err := PlanOn(e, goldenFirst())
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if want := uint64(2 * len(preds)); st.ReplaysExtended != want || st.ReplaysFull != 0 || st.ReplaysRefused != 0 {
		t.Fatalf("%d candidates: extended/full/refused = %d/%d/%d, want %d/0/0", len(preds), st.ReplaysExtended, st.ReplaysFull, st.ReplaysRefused, want)
	}
	again, err := PlanOn(e, goldenFirst())
	if err != nil || !reflect.DeepEqual(again, preds) {
		t.Fatalf("a warm plan differs from the cold one (%v)", err)
	}
	warm := e.Stats()
	if want := st.ReplaysExtended + uint64(len(preds)); warm.ReplaysExtended != want || warm.ReplaysFull != 0 || warm.ReplaysRefused != 0 {
		t.Fatalf("warm plan of %d candidates: extended/full/refused = %d/%d/%d, want %d/0/0", len(preds), warm.ReplaysExtended, warm.ReplaysFull, warm.ReplaysRefused, want)
	}
	for _, p := range preds {
		if p.N < 3*p.D || p.N*p.B*p.W != 512 {
			t.Fatalf("test premise: candidate %+v should carry the full N ≥ 3D", *p)
		}
		// Not in the memo: asking for it now is a miss that builds it.
		before := e.Stats().ScheduleMisses
		if _, err := e.Schedule(engine.ChimeraKey(p.D, p.N, 0, schedule.Direct)); err != nil {
			t.Fatal(err)
		}
		if e.Stats().ScheduleMisses != before+1 {
			t.Fatalf("the (D=%d, N=%d) schedule was built by the plan", p.D, p.N)
		}
	}
}

// TestColdPlanBuildsOnlyReplayedSchedules: the memory fit of a cold plan
// builds no schedule — every profile it asks for is closed-form — so the
// only schedules built are the ones Eq. 1 replays, one per candidate, whose
// critical path is closed-form too.
func TestColdPlanBuildsOnlyReplayedSchedules(t *testing.T) {
	e := engine.New(engine.Workers(1))
	for i, req := range benchRequests() {
		e.Reset()
		preds, err := PlanOn(e, req)
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.ScheduleMisses != st.CriticalMisses || st.CriticalMisses < uint64(len(preds)) {
			t.Fatalf("request %d: %d candidates built %d schedules for %d critical-path probes, want one each", i, len(preds), st.ScheduleMisses, st.CriticalMisses)
		}
	}
}

// TestPlanSpeedFactorsTakeFullReplay: per-worker speed factors keep Eq. 1's
// two replays on the full schedule (they would be tried and refused); the
// fixed placement's critical path is closed-form whatever the request, so
// nothing rides the short schedule.
func TestPlanSpeedFactorsTakeFullReplay(t *testing.T) {
	req := goldenFirst()
	req.SpeedFactors = sim.EncodeSpeedFactors([]float64{1, 1, 1.5, 1})
	e := engine.New(engine.Workers(1))
	preds, err := PlanOn(e, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0].D != 4 || preds[0].N < 12 {
		t.Fatalf("test premise: one D=4 candidate with N ≥ 3D, got %+v", preds)
	}
	if st := e.Stats(); st.ReplaysFull != 2 || st.ReplaysExtended != 0 || st.ReplaysRefused != 0 {
		t.Fatalf("extended/full/refused = %d/%d/%d, want 0/2/0", st.ReplaysExtended, st.ReplaysFull, st.ReplaysRefused)
	}
}

// TestPredictValidatesLikeSimRun: Predict and sim.Run share one rule for
// what a configuration must satisfy and what it defaults — they accept and
// reject the same configs, with the same words.
func TestPredictValidatesLikeSimRun(t *testing.T) {
	valid := chimeraCfg(t, 4, 8, 8, 8)
	for name, mutate := range map[string]func(*sim.Config){
		"valid":                func(*sim.Config) {},
		"matching factors":     func(c *sim.Config) { c.SpeedFactors = []float64{1, 1.25, 1, 2} },
		"too few factors":      func(c *sim.Config) { c.SpeedFactors = []float64{1, 1.25} },
		"too many factors":     func(c *sim.Config) { c.SpeedFactors = []float64{1, 1, 1, 1, 1} },
		"non-positive factor":  func(c *sim.Config) { c.SpeedFactors = []float64{1, 0, 1, 1} },
		"zero micro-batch":     func(c *sim.Config) { c.MicroBatch = 0 },
		"negative micro-batch": func(c *sim.Config) { c.MicroBatch = -2 },
		"zero W":               func(c *sim.Config) { c.W = 0 },
		"nil schedule":         func(c *sim.Config) { c.Schedule = nil },
		"zero device":          func(c *sim.Config) { c.Device = sim.Device{} },
		"zero network":         func(c *sim.Config) { c.Network = sim.Network{} },
	} {
		cfg := valid
		mutate(&cfg)
		_, runErr := sim.Run(cfg)
		pred, err := Predict(cfg)
		_, cerr := PredictWithCritical(cfg, 4, 8)
		if (err == nil) != (runErr == nil) || (cerr == nil) != (runErr == nil) {
			t.Errorf("%s: Predict %v, PredictWithCritical %v, sim.Run %v", name, err, cerr, runErr)
			continue
		}
		if runErr != nil {
			if err.Error() != runErr.Error() || cerr.Error() != runErr.Error() {
				t.Errorf("%s: Predict %q, PredictWithCritical %q, sim.Run %q", name, err, cerr, runErr)
			}
			continue
		}
		if !(pred.IterTime > 0 && pred.Throughput > 0) {
			t.Errorf("%s: prediction %+v is not a time", name, *pred)
		}
	}
	// The defaults are sim.Run's: Piz Daint on Aries.
	want, err := Predict(valid)
	if err != nil {
		t.Fatal(err)
	}
	bare := valid
	bare.Device, bare.Network = sim.Device{}, sim.Network{}
	if got, err := Predict(bare); err != nil || *got != *want {
		t.Fatalf("zero device and network predicted %+v (%v), want the defaults' %+v", got, err, want)
	}
}
