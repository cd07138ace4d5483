package perfmodel

import (
	"reflect"
	"strings"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/obs"
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

// TestPlanNeverBuildsLongSchedule: a homogeneous plan whose candidates all
// have N ≥ 3D never touches the engine's schedule memo, cold or warm — the
// critical path, the compute term and the free regions are all closed-form
// — and Prediction.N keeps the full N. Only asking the engine for each long
// schedule builds one, one miss per candidate.
func TestPlanNeverBuildsLongSchedule(t *testing.T) {
	e := engine.New(engine.Workers(1))
	preds, err := PlanOn(e, goldenFirst())
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ScheduleMisses != 0 || st.ScheduleHits != 0 {
		t.Fatalf("cold plan of %d candidates: %d schedule misses and %d hits, want none", len(preds), st.ScheduleMisses, st.ScheduleHits)
	}
	again, err := PlanOn(e, goldenFirst())
	if err != nil || !reflect.DeepEqual(again, preds) {
		t.Fatalf("a warm plan differs from the cold one (%v)", err)
	}
	if st := e.Stats(); st.ScheduleMisses != 0 || st.ScheduleHits != 0 {
		t.Fatalf("warm plan of %d candidates: %d schedule misses and %d hits, want none", len(preds), st.ScheduleMisses, st.ScheduleHits)
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

// TestColdPlanBuildsOnlyReplayedSchedules: a homogeneous plan, cold and
// then warm, never touches the schedule memo — the memory fit, every
// critical path and both of Eq. 1's replayed terms are closed-form — while
// still probing one critical path per candidate. Nor does it leave any
// residency state behind: the fit is priced per candidate, so the critical
// paths are the only entries the engine holds.
func TestColdPlanBuildsOnlyReplayedSchedules(t *testing.T) {
	reg := obs.NewRegistry()
	e := engine.New(engine.Workers(1), engine.Observe(reg))
	for i, req := range benchRequests() {
		e.Reset()
		for _, temp := range []string{"cold", "warm"} {
			preds, err := PlanOn(e, req)
			if err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.ScheduleMisses != 0 || st.ScheduleHits != 0 {
				t.Fatalf("request %d, %s: %d candidates left %d schedule misses and %d hits, want none", i, temp, len(preds), st.ScheduleMisses, st.ScheduleHits)
			}
			if st.CriticalMisses < uint64(len(preds)) {
				t.Fatalf("request %d, %s: %d candidates probed %d critical paths, want one each", i, temp, len(preds), st.CriticalMisses)
			}
			for series, entries := range reg.Snapshot().Gauges {
				if strings.HasPrefix(series, "engine_cache_entries") && series != `engine_cache_entries{table="criticals"}` && entries != 0 {
					t.Fatalf("request %d, %s: %s = %g, want only critical paths held", i, temp, series, entries)
				}
			}
		}
	}
}

// TestPlanSpeedFactorsReplayOneGraph: per-worker speed factors replay both
// of Eq. 1's replayed terms, the free regions and the compute term, on the
// candidate's one memoized graph: one schedule miss and one hit per
// candidate. The fixed placement's critical path is closed-form whatever
// the request, so it adds none.
func TestPlanSpeedFactorsReplayOneGraph(t *testing.T) {
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
	if st := e.Stats(); st.ScheduleMisses != 1 || st.ScheduleHits != 1 || st.ScheduleEntries != 1 {
		t.Fatalf("%d schedule misses, %d hits, %d entries, want one of each", st.ScheduleMisses, st.ScheduleHits, st.ScheduleEntries)
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
