package chimera_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"chimera"
)

// TestFacadeScheduleRoundTrip exercises the public API end to end: build,
// render, analyze.
func TestFacadeScheduleRoundTrip(t *testing.T) {
	s, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	art, err := chimera.RenderASCII(s, chimera.UnitPractical)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art, "P3") {
		t.Fatal("render missing workers")
	}
	a, err := chimera.Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.BubbleRatioEqual != 0.2 {
		t.Fatalf("bubble %v", a.BubbleRatioEqual)
	}
	var buf bytes.Buffer
	if err := chimera.WriteChromeTrace(&buf, s, chimera.UnitEqual); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestFacadeSchemes covers the by-name constructors.
func TestFacadeSchemes(t *testing.T) {
	if len(chimera.Schemes()) != 6 {
		t.Fatalf("schemes: %v", chimera.Schemes())
	}
	for _, name := range chimera.Schemes() {
		if _, err := chimera.Build(chimera.ScheduleSpec{Scheme: name, D: 4, N: 4}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := chimera.Build(chimera.ScheduleSpec{Scheme: "bogus", D: 4, N: 4}); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

// TestFacadeSimulateAndPlan runs the simulator and the planner through the
// facade.
func TestFacadeSimulateAndPlan(t *testing.T) {
	s, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 4, N: 8, Concat: chimera.Direct})
	if err != nil {
		t.Fatal(err)
	}
	res, err := chimera.Simulate(chimera.SimConfig{
		Model: chimera.BERT48(), Schedule: s, MicroBatch: 8, W: 8,
		Device: chimera.PizDaintNode(), Network: chimera.AriesNetwork(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("degenerate simulation")
	}
	res2, recompute, err := chimera.SimulateAuto(chimera.SimConfig{
		Model: chimera.GPT2(), Schedule: mustGPT2Sched(t), MicroBatch: 1, W: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.OOM {
		t.Fatal("auto-run should have resolved memory via recompute")
	}
	_ = recompute
	preds, err := chimera.Plan(nil, chimera.PlanRequest{
		Model: chimera.BERT48(), P: 32, MiniBatch: 512,
		Device: chimera.PizDaintNode(), Network: chimera.AriesNetwork(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 || preds[0].Throughput <= 0 {
		t.Fatal("empty plan")
	}
}

func mustGPT2Sched(t *testing.T) *chimera.Schedule {
	t.Helper()
	s, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 8, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFacadeTraining trains through the facade and checks equivalence.
func TestFacadeTraining(t *testing.T) {
	spec := chimera.ModelSpec{Vocab: 17, Dim: 8, Heads: 2, SeqLen: 4, Layers: 4, Seed: 7}
	s, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	newOpt := func() chimera.Optimizer { return chimera.NewMomentum(0.05, 0.9) }
	tr, err := chimera.NewTrainer(chimera.TrainerConfig{
		Schedule: s, W: 1, Spec: spec, MicroBatch: 2, NewOptimizer: newOpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chimera.NewReference(spec, 4, 2, newOpt)
	if err != nil {
		t.Fatal(err)
	}
	batch := chimera.NewStream(17, 4, 9).Next(2 * 4)
	l1, err := tr.TrainIteration(batch)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ref.TrainIteration(batch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l1-l2) > 1e-5 {
		t.Fatalf("facade training diverges: %v vs %v", l1, l2)
	}
}

// TestFacadeOptimizers sanity-checks the exported constructors.
func TestFacadeOptimizers(t *testing.T) {
	for _, o := range []chimera.Optimizer{chimera.NewSGD(0.1), chimera.NewMomentum(0.1, 0.9), chimera.NewAdam(0.01)} {
		if o == nil {
			t.Fatal("nil optimizer")
		}
	}
}

// TestFacadeModels: the model zoo matches the paper's Table 4 scale.
func TestFacadeModels(t *testing.T) {
	if p := chimera.GPT2().TotalParams(); p < 1_300_000_000 {
		t.Fatalf("gpt2 params %d", p)
	}
	if p := chimera.BERT48().TotalParams(); p < 600_000_000 {
		t.Fatalf("bert params %d", p)
	}
	if chimera.GPT2Small32().Layers != 32 {
		t.Fatal("gpt2-32 layer count")
	}
}
