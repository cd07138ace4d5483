package pipeline

import (
	"math"
	"testing"

	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/schedule"
)

func compressedTrainer(t *testing.T, kind CompressionKind, ratio float64) *Trainer {
	t.Helper()
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		Schedule: s, W: 2, Spec: tinySpec, MicroBatch: 1,
		NewOptimizer: func() optim.Optimizer { return &optim.Momentum{LR: 0.05, Mu: 0.9} },
		Compression:  kind, TopKRatio: ratio,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCompressedSyncConvergesInt8: 8-bit gradient exchange still trains.
func TestCompressedSyncConvergesInt8(t *testing.T) {
	tr := compressedTrainer(t, CompressInt8, 0)
	batch := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 51).Next(1 * 4 * 2)
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
		t.Fatalf("int8-compressed training did not reduce loss: %v → %v", first, last)
	}
}

// TestCompressedSyncReplicaConsistency: lossy but deterministic — all
// holders of a stage remain bitwise identical.
func TestCompressedSyncReplicaConsistency(t *testing.T) {
	for _, kind := range []CompressionKind{CompressInt8, CompressTopK} {
		tr := compressedTrainer(t, kind, 0.25)
		stream := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 52)
		for i := 0; i < 3; i++ {
			if _, err := tr.TrainIteration(stream.Next(1 * 4 * 2)); err != nil {
				t.Fatal(err)
			}
		}
		for st := 0; st < 4; st++ {
			w0 := tr.StageWeights(st, 0)
			for h := 1; h < tr.groups[st].Size(); h++ {
				wh := tr.StageWeights(st, h)
				for i := range w0 {
					if w0[i] != wh[i] {
						t.Fatalf("kind=%d stage %d holder %d diverged", kind, st, h)
					}
				}
			}
		}
	}
}

// TestCompressedGradCloseToExact: int8-synchronized gradients approximate
// the exact allreduce within the quantization error bound.
func TestCompressedGradCloseToExact(t *testing.T) {
	mk := func(kind CompressionKind) *Trainer {
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: 2, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(Config{Schedule: s, W: 1, Spec: tinySpec, MicroBatch: 2, Compression: kind})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	batch := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 53).Next(2 * 2)
	exact := mk(CompressNone)
	lossy := mk(CompressInt8)
	if _, err := exact.TrainIteration(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := lossy.TrainIteration(batch); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 2; st++ {
		ge, gl := exact.StageGrads(st), lossy.StageGrads(st)
		var worst, scale float64
		for i := range ge {
			if d := math.Abs(float64(ge[i] - gl[i])); d > worst {
				worst = d
			}
			if a := math.Abs(float64(ge[i])); a > scale {
				scale = a
			}
		}
		// Error bounded by the summed per-member quantization steps —
		// loose bound: 2% of the gradient magnitude scale.
		if worst > 0.02*scale+1e-6 {
			t.Errorf("stage %d: compressed grad error %v vs scale %v", st, worst, scale)
		}
	}
}

// TestCompressionRejectsEagerSync: lossy sync is post-hoc only.
func TestCompressionRejectsEagerSync(t *testing.T) {
	s, _ := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	_, err := New(Config{Schedule: s, W: 1, Spec: tinySpec, MicroBatch: 1,
		Compression: CompressInt8, EagerSync: true})
	if err == nil {
		t.Fatal("compression + eager sync must be rejected")
	}
}
