package model

import (
	"math"
	"testing"
)

// TestParamCountsMatchTable4 pins the model zoo to the paper's Table 4
// parameter counts within 2% (exact layer-internal bookkeeping differs
// between implementations; the pipeline behaviour depends only on scale).
func TestParamCountsMatchTable4(t *testing.T) {
	cases := []struct {
		cfg   Config
		paper int64
	}{
		{BERT48(), 669_790_012},
		{GPT2(), 1_389_327_360},
	}
	for _, c := range cases {
		got := c.cfg.TotalParams()
		rel := math.Abs(float64(got-c.paper)) / float64(c.paper)
		if rel > 0.02 {
			t.Errorf("%s: %d params, paper says %d (%.1f%% off)", c.cfg.Name, got, c.paper, rel*100)
		}
	}
}

func TestPartitionEvenAndDecorated(t *testing.T) {
	cfg := GPT2()
	if err := cfg.CheckDepth(16); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := range 16 {
		s := cfg.Stage(i, 16)
		if s.Index != i || s.Layers != 4 {
			t.Fatalf("stage %d is index %d with %d layers", i, s.Index, s.Layers)
		}
		if s.Embedding != (i == 0) || s.Head != (i == 15) {
			t.Fatalf("stage %d embedding/head flags wrong", i)
		}
		total += s.Params()
	}
	if total != cfg.TotalParams() {
		t.Fatalf("stage params sum %d != total %d", total, cfg.TotalParams())
	}
}

func TestPartitionRejectsUneven(t *testing.T) {
	if err := BERT48().CheckDepth(5); err == nil {
		t.Fatal("48 layers into 5 stages should fail")
	}
	if err := BERT48().CheckDepth(0); err == nil {
		t.Fatal("zero stages should fail")
	}
}

// TestDoubleImbalance checks the §4.1 premise: stage 0 is the
// weight-heaviest stage (embedding) for realistic depths.
func TestDoubleImbalance(t *testing.T) {
	for _, d := range []int{8, 16, 32} {
		if err := GPT2().CheckDepth(d); err != nil {
			t.Fatal(err)
		}
		first := GPT2().Stage(0, d)
		for i := 1; i < d-1; i++ {
			if st := GPT2().Stage(i, d); first.Params() <= st.Params() {
				t.Errorf("D=%d: stage0 (%d) not heavier than stage %d (%d)",
					d, first.Params(), i, st.Params())
			}
		}
	}
}

func TestActivationBytesScaleLinearlyInB(t *testing.T) {
	s := BERT48().Stage(1, 4)
	a1 := s.ActivationBytes(1)
	a8 := s.ActivationBytes(8)
	if a8 != 8*a1 {
		t.Fatalf("activations not linear in B: %d vs 8×%d", a8, a1)
	}
	if a1 <= 0 {
		t.Fatal("activation bytes must be positive")
	}
}

func TestHeadStageStoresLogits(t *testing.T) {
	mid, last := GPT2().Stage(3, 8), GPT2().Stage(7, 8)
	if last.ActivationBytes(1) <= mid.ActivationBytes(1) {
		t.Fatal("head stage should store extra logits activations")
	}
}

func TestFLOPsMonotonicAndHeadHeavy(t *testing.T) {
	mid := GPT2().Stage(2, 8)
	if mid.FwdFLOPs(2) != 2*mid.FwdFLOPs(1) {
		t.Fatal("FLOPs must scale linearly in B")
	}
	if GPT2().Stage(7, 8).FwdFLOPs(1) <= mid.FwdFLOPs(1) {
		t.Fatal("head stage adds vocabulary projection FLOPs")
	}
}

func TestBoundaryBytes(t *testing.T) {
	cfg := BERT48()
	want := int64(4) * int64(cfg.SeqLen) * int64(cfg.Hidden) * 4
	if got := cfg.BoundaryBytes(4); got != want {
		t.Fatalf("boundary bytes %d want %d", got, want)
	}
}

func TestWeightBytesUseTrainingState(t *testing.T) {
	if BytesPerParamTraining != 3*4 {
		t.Fatal("weight bytes must include gradient and momentum state: three fp32 values per parameter")
	}
}

// TestMemoryScaleSanity: a 16 GB device must fit a few micro-batches of one
// GPT-2 stage at D=32 but not hundreds — the regime the paper's Figure 9
// operates in.
func TestMemoryScaleSanity(t *testing.T) {
	s := GPT2().Stage(16, 32)
	const device = 16 << 30
	perMB := s.ActivationBytes(1)
	if perMB*4 > device {
		t.Fatalf("4 micro-batches (%d bytes) should fit in 16 GB", perMB*4)
	}
	if perMB*500 < device {
		t.Fatalf("500 micro-batches (%d bytes) should overflow 16 GB", perMB*500)
	}
}

func TestBERT48Seq512Variant(t *testing.T) {
	a, b := BERT48(), BERT48Seq512()
	if b.SeqLen != 512 || a.SeqLen != 128 {
		t.Fatal("sequence variants wrong")
	}
	// Longer sequences mean larger boundary tensors and more attention
	// activations per token.
	if b.BoundaryBytes(1) <= a.BoundaryBytes(1) {
		t.Fatal("boundary bytes must grow with sequence length")
	}
	if b.Stage(1, 4).ActivationBytes(1) <= a.Stage(1, 4).ActivationBytes(1) {
		t.Fatal("activation bytes must grow with sequence length")
	}
}

func TestGPT2Small32Scale(t *testing.T) {
	small, big := GPT2Small32(), GPT2()
	if small.Layers != 32 || big.Layers != 64 {
		t.Fatal("layer counts")
	}
	if small.TotalParams() >= big.TotalParams() {
		t.Fatal("32-layer model must be smaller")
	}
}

func TestEmbeddingStageActivationExtra(t *testing.T) {
	if GPT2().Stage(0, 8).ActivationBytes(1) <= GPT2().Stage(1, 8).ActivationBytes(1) {
		t.Fatal("embedding stage stores the embedded input activations")
	}
}
