package pipeline

import (
	"math"
	"strings"
	"testing"

	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/schedule"
)

var tinySpec = ModelSpec{Vocab: 17, Dim: 8, Heads: 2, SeqLen: 4, Layers: 4, Seed: 7}

func tinyBatch(t *testing.T, sequences int) *data.Batch {
	t.Helper()
	return data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 42).Next(sequences)
}

func mustTrainer(t *testing.T, sched *schedule.Schedule, w, b int, eager bool) *Trainer {
	t.Helper()
	tr, err := New(Config{Schedule: sched, W: w, Spec: tinySpec, MicroBatch: b, EagerSync: eager})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pinTrainer builds the trainer a pin case runs and returns its iteration
// and a reader of every holder's weights, stage-major and holder-minor.
func pinTrainer(cfg Config) (func(*data.Batch) (float64, error), func() [][]float32, error) {
	tr, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return tr.TrainIteration, func() [][]float32 {
		var out [][]float32
		for st := 0; st < tr.d; st++ {
			for h := 0; h < tr.groups[st].Size(); h++ {
				out = append(out, tr.StageWeights(st, h))
			}
		}
		return out
	}, nil
}

func maxDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// checkEquivalence runs one iteration of the distributed schedule and the
// sequential reference on identical data, then compares the synchronized
// per-stage gradients and the post-step weights.
func checkEquivalence(t *testing.T, sched *schedule.Schedule, w, b int, eager bool) {
	t.Helper()
	tr := mustTrainer(t, sched, w, b, eager)
	ref, err := NewReference(tinySpec, sched.D, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch(t, b*sched.N*w)
	lossDist, err := tr.TrainIteration(batch)
	if err != nil {
		t.Fatal(err)
	}
	lossRef, err := ref.TrainIteration(batch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lossDist-lossRef) > 1e-4 {
		t.Fatalf("%s: loss %v vs reference %v", sched.Scheme, lossDist, lossRef)
	}
	for st := 0; st < sched.D; st++ {
		if d := maxDiff(tr.StageGrads(st), ref.StageGrads(st)); d > 1e-4 {
			t.Errorf("%s: stage %d gradient diff %v vs sequential SGD", sched.Scheme, st, d)
		}
		if d := maxDiff(tr.StageWeights(st, 0), ref.StageWeights(st)); d > 1e-4 {
			t.Errorf("%s: stage %d weight diff %v after step", sched.Scheme, st, d)
		}
	}
}

// TestSynchronousEquivalenceChimera is the core convergence claim: Chimera
// training ≡ sequential mini-batch SGD.
func TestSynchronousEquivalenceChimera(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, s, 1, 2, false)
}

// TestSynchronousEquivalenceAllSchemes extends the check to every
// synchronous baseline at D=4, N=4.
func TestSynchronousEquivalenceAllSchemes(t *testing.T) {
	for _, name := range []string{"gpipe", "dapple", "gems", "1f1b"} {
		s, err := schedule.ByName(name, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, s, 1, 2, false)
	}
}

// TestEquivalenceWithDataParallelism covers the hybrid W>1 case (§3.3):
// gradient allreduce across pipeline copies preserves equivalence.
func TestEquivalenceWithDataParallelism(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, s, 2, 2, false)
}

// TestEquivalenceEagerSync covers the §3.2 eager synchronization path.
func TestEquivalenceEagerSync(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, s, 1, 2, true)
}

// TestEquivalenceDirectConcat covers N > D direct concatenation.
func TestEquivalenceDirectConcat(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: schedule.Direct})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, s, 1, 1, false)
}

// TestEquivalenceRecompute: activation recomputation must not change
// gradients.
func TestEquivalenceRecompute(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Schedule: s, W: 1, Spec: tinySpec, MicroBatch: 2, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(tinySpec, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch(t, 2*4)
	if _, err := tr.TrainIteration(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainIteration(batch); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 4; st++ {
		if d := maxDiff(tr.StageGrads(st), ref.StageGrads(st)); d > 1e-4 {
			t.Errorf("recompute stage %d grad diff %v", st, d)
		}
	}
}

// TestReplicaWeightConsistency: after iterations, all holders of a stage
// must have identical weights (deterministic collectives + optimizers).
func TestReplicaWeightConsistency(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTrainer(t, s, 2, 1, false)
	stream := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 3)
	for i := 0; i < 3; i++ {
		if _, err := tr.TrainIteration(stream.Next(1 * 4 * 2)); err != nil {
			t.Fatal(err)
		}
	}
	for st := 0; st < 4; st++ {
		w0 := tr.StageWeights(st, 0)
		for h := 1; h < tr.groups[st].Size(); h++ {
			if d := maxDiff(w0, tr.StageWeights(st, h)); d != 0 {
				t.Errorf("stage %d holder %d diverged by %v", st, h, d)
			}
		}
	}
}

// TestLossDecreasesUnderChimera: end-to-end training sanity over several
// iterations with momentum.
func TestLossDecreasesUnderChimera(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		Schedule: s, W: 1, Spec: tinySpec, MicroBatch: 2,
		NewOptimizer: func() optim.Optimizer { return &optim.Momentum{LR: 0.05, Mu: 0.9} },
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 11)
	batch := stream.Next(2 * 4)
	first, err := tr.TrainIteration(batch)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 12; i++ {
		last, err = tr.TrainIteration(batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

// TestChimeraF2Runtime: the generalized four-pipeline construction also
// trains equivalently (D=4, f=2 — four model replicas).
func TestChimeraF2Runtime(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, s, 1, 1, false)
}

// TestTrainerRejections covers constructor validation.
func TestTrainerRejections(t *testing.T) {
	dbl, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: schedule.ForwardDoubling})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Schedule: dbl, W: 1, Spec: tinySpec, MicroBatch: 1}); err == nil {
		t.Error("doubling schedules must be rejected by the runtime")
	}
	if _, err := New(Config{Schedule: nil, W: 1, Spec: tinySpec, MicroBatch: 1}); err == nil {
		t.Error("nil schedule must be rejected")
	}
	s, _ := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	badSpec := tinySpec
	badSpec.Layers = 6 // not divisible by D=4
	if _, err := New(Config{Schedule: s, W: 1, Spec: badSpec, MicroBatch: 1}); err == nil {
		t.Error("indivisible layer count must be rejected")
	}
}

// TestNewRefusesWhatCannotRun: a micro-batch or a model dimension below 1
// is an error naming the field, not a hang in TrainIteration or a panic in
// Validate or tensor.New.
func TestNewRefusesWhatCannotRun(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"MicroBatch", func(c *Config) { c.MicroBatch = 0 }},
		{"MicroBatch", func(c *Config) { c.MicroBatch = -1 }},
		{"Vocab", func(c *Config) { c.Spec.Vocab = 0 }},
		{"Dim", func(c *Config) { c.Spec.Dim = 0 }},
		{"Heads", func(c *Config) { c.Spec.Heads = 0 }},
		{"SeqLen", func(c *Config) { c.Spec.SeqLen = 0 }},
		{"Layers", func(c *Config) { c.Spec.Layers = 0 }},
		{"Layers", func(c *Config) { c.Spec.Layers = -2 }},
	} {
		cfg := Config{Schedule: s, W: 1, Spec: tinySpec, MicroBatch: 1}
		tc.edit(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: New returned %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
	if _, err := NewReference(tinySpec, 2, 0, nil); err == nil || !strings.Contains(err.Error(), "MicroBatch") {
		t.Errorf("NewReference with micro-batch 0 returned %v, want an error naming MicroBatch", err)
	}
}

// TestBatchSizeValidation: the trainer checks B·N·W.
func TestBatchSizeValidation(t *testing.T) {
	s, _ := schedule.Chimera(schedule.ChimeraConfig{D: 2, N: 2})
	tr := mustTrainer(t, s, 1, 2, false)
	if _, err := tr.TrainIteration(tinyBatch(t, 3)); err == nil {
		t.Fatal("wrong batch size must error")
	}
}
