package pipeline

import (
	"math"
	"testing"

	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/schedule"
)

// asyncTrainer builds a Trainer on the PipeDream schedule, which runs
// under the asynchronous weight-stashing rule.
func asyncTrainer(t *testing.T, d, n, w, b int) *Trainer {
	t.Helper()
	s, err := schedule.PipeDream(d, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		Schedule: s, W: w, Spec: tinySpec, MicroBatch: b,
		NewOptimizer: func() optim.Optimizer { return &optim.SGD{LR: 0.05} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAsyncStashDepthMatchesTable2: worker p stashes up to min(N, D−p)
// weight versions — the paper's PipeDream weight-memory interval.
func TestAsyncStashDepthMatchesTable2(t *testing.T) {
	d, n := 4, 8
	tr := asyncTrainer(t, d, n, 1, 1)
	batch := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 5).Next(1 * n)
	if _, err := tr.TrainIteration(batch); err != nil {
		t.Fatal(err)
	}
	for w, depth := range tr.maxStash {
		want := d - w
		if want > n {
			want = n
		}
		if depth != want {
			t.Errorf("worker %d: stash depth %d want %d", w, depth, want)
		}
	}
}

// TestAsyncTrainingConvergesDespiteStaleness: PipeDream still reduces loss
// on a fixed batch (the paper's empirical observation for async schemes).
func TestAsyncTrainingConvergesDespiteStaleness(t *testing.T) {
	tr := asyncTrainer(t, 4, 4, 1, 2)
	batch := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 17).Next(2 * 4)
	first, err := tr.TrainIteration(batch)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 10; i++ {
		last, err = tr.TrainIteration(batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("async loss did not decrease: %v → %v", first, last)
	}
}

// TestAsyncDivergesFromSequentialSGD is the negative control for the
// synchronous-equivalence property: stale weights make PipeDream's result
// measurably different from mini-batch SGD on the same data.
func TestAsyncDivergesFromSequentialSGD(t *testing.T) {
	const d, n, b = 4, 4, 2
	tr := asyncTrainer(t, d, n, 1, b)
	ref, err := NewReference(tinySpec, d, b, func() optim.Optimizer { return &optim.SGD{LR: 0.05} })
	if err != nil {
		t.Fatal(err)
	}
	stream := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 23)
	for i := 0; i < 3; i++ {
		batch := stream.Next(b * n)
		if _, err := tr.TrainIteration(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.TrainIteration(batch); err != nil {
			t.Fatal(err)
		}
	}
	var worst float64
	for st := 0; st < d; st++ {
		a, r := tr.StageWeights(st, 0), ref.StageWeights(st)
		for i := range a {
			if diff := math.Abs(float64(a[i]) - float64(r[i])); diff > worst {
				worst = diff
			}
		}
	}
	if worst < 1e-5 {
		t.Fatalf("async training unexpectedly identical to sequential SGD (diff %v) — staleness not exercised", worst)
	}
}

// TestAsyncRejections covers constructor validation on the asynchronous
// path: only PipeDream's rule is implemented, and the synchronous-only
// knobs do not combine with it.
func TestAsyncRejections(t *testing.T) {
	twoBW, _ := schedule.ByName("pipedream-2bw", 4, 4)
	if _, err := New(Config{Schedule: twoBW, W: 1, Spec: tinySpec, MicroBatch: 1}); err == nil {
		t.Error("pipedream-2bw must be rejected: the runtime implements PipeDream's rule only")
	}
	pd, _ := schedule.PipeDream(4, 4)
	for name, cfg := range map[string]Config{
		"eager sync":    {EagerSync: true},
		"ZeRO sharding": {ZeROShard: true},
		"compression":   {Compression: CompressInt8},
		"recompute":     {Recompute: true},
	} {
		cfg.Schedule, cfg.W, cfg.Spec, cfg.MicroBatch = pd, 1, tinySpec, 1
		if _, err := New(cfg); err == nil {
			t.Errorf("%s is synchronous-only and must be rejected on pipedream", name)
		}
	}
	if _, err := New(Config{Schedule: pd, W: 0, Spec: tinySpec, MicroBatch: 1}); err == nil {
		t.Error("W=0 must be rejected")
	}
}

// TestAsyncWithDataParallelism: the per-micro-batch allreduce path (W>1).
func TestAsyncWithDataParallelism(t *testing.T) {
	tr := asyncTrainer(t, 2, 2, 2, 1)
	batch := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 31).Next(1 * 2 * 2)
	if _, err := tr.TrainIteration(batch); err != nil {
		t.Fatal(err)
	}
	// Copies must stay weight-consistent (they sync every micro-batch).
	a, b2 := tr.StageWeights(0, 0), tr.StageWeights(0, 1)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("data-parallel copies diverged under per-micro allreduce")
		}
	}
}
