package pipeline

import (
	"math"
	"testing"

	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/schedule"
)

// TestZeROShardedStepMatchesUnsharded: the sharded optimizer must produce
// the exact weights of the plain path (ZeRO-1 is a memory optimization, not
// an algorithm change).
func TestZeROShardedStepMatchesUnsharded(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	newOpt := func() optim.Optimizer { return &optim.Momentum{LR: 0.05, Mu: 0.9} }
	mk := func(shard bool) *Trainer {
		tr, err := New(Config{
			Schedule: s, W: 2, Spec: tinySpec, MicroBatch: 1,
			NewOptimizer: newOpt, ZeROShard: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	plain, sharded := mk(false), mk(true)
	stream := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 77)
	for i := 0; i < 3; i++ {
		batch := stream.Next(1 * 4 * 2)
		lp, err := plain.TrainIteration(batch)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := sharded.TrainIteration(batch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lp-ls) > 1e-7 {
			t.Fatalf("iter %d: losses diverge %v vs %v", i, lp, ls)
		}
	}
	for st := 0; st < 4; st++ {
		a, b := plain.StageWeights(st, 0), sharded.StageWeights(st, 0)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("stage %d weight %d: sharded %v != plain %v", st, i, b[i], a[i])
			}
		}
	}
}

// TestZeROShardedHoldersStayConsistent: all holders agree after sharded
// updates (each owned a different shard; allgather reassembles all).
func TestZeROShardedHoldersStayConsistent(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Schedule: s, W: 2, Spec: tinySpec, MicroBatch: 1, ZeROShard: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 78).Next(1 * 4 * 2)
	if _, err := tr.TrainIteration(batch); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 4; st++ {
		w0 := tr.StageWeights(st, 0)
		for h := 1; h < tr.groups[st].Size(); h++ {
			wh := tr.StageWeights(st, h)
			for i := range w0 {
				if w0[i] != wh[i] {
					t.Fatalf("stage %d holder %d diverged at %d", st, h, i)
				}
			}
		}
	}
}
