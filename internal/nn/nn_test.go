package nn

import (
	"math"
	"math/rand"
	"testing"

	"chimera/internal/tensor"
)

// lossOf computes a deterministic scalar loss Σ w⊙y for a layer's output,
// used as the objective for finite-difference gradient checks.
func lossOf(l Layer, x *tensor.Tensor, w []float32) float64 {
	y := l.Forward(999, x.Clone())
	defer l.DropCache(999)
	var s float64
	for i, v := range y.Data {
		s += float64(v) * float64(w[i%len(w)])
	}
	return s
}

// checkGrads runs Forward+Backward once analytically, then verifies a sample
// of input and parameter gradients against central finite differences.
func checkGrads(t *testing.T, l Layer, x *tensor.Tensor, outLen int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	w := make([]float32, outLen)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	// Analytic pass.
	y := l.Forward(0, x.Clone())
	if y.Len()%outLen != 0 {
		t.Fatalf("output len %d not multiple of %d", y.Len(), outLen)
	}
	dy := tensor.New(y.Shape...)
	for i := range dy.Data {
		dy.Data[i] = w[i%outLen]
	}
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dx := l.Backward(0, dy)

	const h = 1e-2
	checkOne := func(name string, data []float32, grad []float32, idx int) {
		t.Helper()
		orig := data[idx]
		data[idx] = orig + h
		lp := lossOf(l, x, w)
		data[idx] = orig - h
		lm := lossOf(l, x, w)
		data[idx] = orig
		fd := (lp - lm) / (2 * h)
		got := float64(grad[idx])
		denom := math.Max(1, math.Max(math.Abs(fd), math.Abs(got)))
		if math.Abs(fd-got)/denom > tol {
			t.Errorf("%s[%d]: analytic %v vs fd %v", name, idx, got, fd)
		}
	}
	// Sample input gradient positions.
	for k := 0; k < 6 && k < x.Len(); k++ {
		idx := (k * 7919) % x.Len()
		checkOne("dx", x.Data, dx.Data, idx)
	}
	// Sample each parameter.
	for _, p := range l.Params() {
		for k := 0; k < 4 && k < p.Value.Len(); k++ {
			idx := (k * 104729) % p.Value.Len()
			checkOne(p.Name, p.Value.Data, p.Grad.Data, idx)
		}
	}
}

func randInput(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	x.RandN(rng, 1)
	return x
}

func TestLinearGradCheck(t *testing.T) {
	l := NewLinear("fc", 5, 7)
	InitWeights([]Layer{l}, 1)
	checkGrads(t, l, randInput(2, 3, 5), 7, 2e-2)
}

func TestLayerNormGradCheck(t *testing.T) {
	l := NewLayerNorm("ln", 8)
	checkGrads(t, l, randInput(3, 4, 8), 8, 2e-2)
}

func TestGELUGradCheckLayer(t *testing.T) {
	l := NewGELU()
	checkGrads(t, l, randInput(4, 3, 6), 6, 2e-2)
}

func TestAttentionGradCheck(t *testing.T) {
	l := NewSelfAttention("attn", 8, 2, 4)
	InitWeights([]Layer{l}, 5)
	checkGrads(t, l, randInput(6, 2*4, 8), 8, 3e-2)
}

func TestBlockGradCheck(t *testing.T) {
	l := NewTransformerBlock("blk", 8, 2, 4)
	InitWeights([]Layer{l}, 7)
	checkGrads(t, l, randInput(8, 1*4, 8), 8, 3e-2)
}

func TestEmbeddingGradScatter(t *testing.T) {
	e := NewEmbedding("emb", 10, 4, 3)
	InitWeights([]Layer{e}, 9)
	ids := tensor.FromSlice([]float32{1, 2, 1}, 3) // one batch, T=3
	y := e.Forward(0, ids)
	dy := tensor.New(y.Shape...)
	dy.Fill(1)
	e.Backward(0, dy)
	// Token 1 appears twice: its grad row should be 2, token 2 once: 1.
	for j := 0; j < 4; j++ {
		if e.Tok.Grad.At(1, j) != 2 {
			t.Fatalf("tok1 grad %v", e.Tok.Grad.At(1, j))
		}
		if e.Tok.Grad.At(2, j) != 1 {
			t.Fatalf("tok2 grad %v", e.Tok.Grad.At(2, j))
		}
		if e.Tok.Grad.At(3, j) != 0 {
			t.Fatalf("tok3 grad %v", e.Tok.Grad.At(3, j))
		}
		// Every position used once.
		if e.Pos.Grad.At(j%3, 0) != 1 {
			t.Fatalf("pos grad %v", e.Pos.Grad.At(j%3, 0))
		}
	}
}

func TestEmbeddingClampsOutOfVocab(t *testing.T) {
	e := NewEmbedding("emb", 4, 2, 2)
	InitWeights([]Layer{e}, 1)
	ids := tensor.FromSlice([]float32{-3, 99}, 2)
	y := e.Forward(0, ids)
	e.DropCache(0)
	// Both clamp to token 0: rows differ only by positional embedding.
	for j := 0; j < 2; j++ {
		d0 := y.At(0, j) - e.Pos.Value.At(0, j)
		d1 := y.At(1, j) - e.Pos.Value.At(1, j)
		if math.Abs(float64(d0-d1)) > 1e-6 {
			t.Fatalf("clamping failed: %v vs %v", d0, d1)
		}
	}
}

func TestCrossEntropyGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.New(4, 6)
	logits.RandN(rng, 1)
	targets := []int{1, 3, 0, 5}
	loss, dlogits := CrossEntropy(logits, targets, 1)
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	const h = 1e-2
	for k := 0; k < 8; k++ {
		idx := (k * 31) % logits.Len()
		orig := logits.Data[idx]
		logits.Data[idx] = orig + h
		lp, _ := CrossEntropy(logits, targets, 1)
		logits.Data[idx] = orig - h
		lm, _ := CrossEntropy(logits, targets, 1)
		logits.Data[idx] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-float64(dlogits.Data[idx])) > 1e-3 {
			t.Fatalf("dlogits[%d]: %v vs fd %v", idx, dlogits.Data[idx], fd)
		}
	}
}

func TestCrossEntropyGradScale(t *testing.T) {
	logits := randInput(3, 2, 5)
	_, d1 := CrossEntropy(logits, []int{0, 1}, 1)
	_, d4 := CrossEntropy(logits, []int{0, 1}, 0.25)
	for i := range d1.Data {
		if math.Abs(float64(d1.Data[i]*0.25-d4.Data[i])) > 1e-7 {
			t.Fatal("gradScale not linear")
		}
	}
}

func TestMultipleMicroBatchesInFlight(t *testing.T) {
	// 1F1B-style interleaving (F0 F1 B0 B1 vs F0 B0 F1 B1) must accumulate
	// identical gradients — the property pipeline schedules rely on.
	build := func() *TransformerBlock {
		b := NewTransformerBlock("blk", 8, 2, 4)
		InitWeights([]Layer{b}, 3)
		return b
	}
	x0 := randInput(20, 4, 8)
	x1 := randInput(21, 4, 8)
	dy0 := randInput(22, 4, 8)
	dy1 := randInput(23, 4, 8)

	a := build()
	a.Forward(0, x0.Clone())
	a.Forward(1, x1.Clone())
	a.Backward(0, dy0)
	a.Backward(1, dy1)

	b := build()
	b.Forward(0, x0.Clone())
	b.Backward(0, dy0)
	b.Forward(1, x1.Clone())
	b.Backward(1, dy1)

	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if d := maxAbsDiff(pa[i].Grad, pb[i].Grad); d > 1e-6 {
			t.Fatalf("param %s grads diverge by %v under interleaving", pa[i].Name, d)
		}
	}
}

func TestStageRecomputeMatchesDirect(t *testing.T) {
	mk := func(recompute bool) *Stage {
		blk := NewTransformerBlock("blk", 8, 2, 4)
		fc := NewLinear("head", 8, 8)
		s := NewStage(0, blk, fc)
		InitWeights(s.Layers, 13)
		s.Recompute = recompute
		return s
	}
	x := randInput(30, 4, 8)
	dy := randInput(31, 4, 8)
	direct := mk(false)
	direct.Forward(0, x.Clone())
	dxd := direct.Backward(0, dy)

	recomp := mk(true)
	recomp.Forward(0, x.Clone())
	dxr := recomp.Backward(0, dy)

	if d := maxAbsDiff(dxd, dxr); d > 1e-6 {
		t.Fatalf("recompute dx differs by %v", d)
	}
	gvd, gvr := direct.GradVector(), recomp.GradVector()
	for i := range gvd {
		if math.Abs(float64(gvd[i]-gvr[i])) > 1e-6 {
			t.Fatalf("recompute grads differ at %d", i)
		}
	}
}

func TestStageGradAndWeightVectorRoundTrip(t *testing.T) {
	s := NewStage(0, NewLinear("a", 3, 4), NewLayerNorm("ln", 4))
	InitWeights(s.Layers, 17)
	x := randInput(40, 2, 3)
	s.Forward(0, x)
	dy := randInput(41, 2, 4)
	s.Backward(0, dy)

	gv := s.GradVector()
	if n := paramElements(s.Params()); len(gv) != n {
		t.Fatalf("grad vector len %d != %d", len(gv), n)
	}
	for i := range gv {
		gv[i] *= 2
	}
	s.SetGradVector(gv)
	if got := s.GradVector(); got[0] != gv[0] {
		t.Fatal("SetGradVector did not apply")
	}

	wv := s.WeightVector()
	wv[0] += 1
	s.SetWeightVector(wv)
	if got := s.WeightVector(); got[0] != wv[0] {
		t.Fatal("SetWeightVector did not apply")
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	l := NewLinear("fc", 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Backward(5, tensor.New(1, 2))
}

func TestParamCountAndCollect(t *testing.T) {
	layers := []Layer{NewLinear("a", 3, 4), NewLayerNorm("ln", 4)}
	// Linear: 3*4+4 = 16; LN: 4+4 = 8.
	if n := paramElements(CollectParams(layers)); n != 24 {
		t.Fatalf("param count %d", n)
	}
	if len(CollectParams(layers)) != 4 {
		t.Fatalf("collect %d", len(CollectParams(layers)))
	}
	ZeroGrads(layers)
}

func TestBlockTrainsToLowerLoss(t *testing.T) {
	// One block + head must reduce loss on a fixed batch with plain SGD —
	// an end-to-end sanity check of all backward passes together.
	const vocab, dim, seq = 11, 8, 4
	emb := NewEmbedding("emb", vocab, dim, seq)
	blk := NewTransformerBlock("blk", dim, 2, seq)
	head := NewLinear("head", dim, vocab)
	layers := []Layer{emb, blk, head}
	InitWeights(layers, 23)

	rng := rand.New(rand.NewSource(99))
	ids := tensor.New(2 * seq)
	targets := make([]int, 2*seq)
	for i := range ids.Data {
		ids.Data[i] = float32(rng.Intn(vocab))
		targets[i] = rng.Intn(vocab)
	}
	step := func() float64 {
		ZeroGrads(layers)
		h := emb.Forward(0, ids)
		h = blk.Forward(0, h)
		logits := head.Forward(0, h)
		loss, dl := CrossEntropy(logits, targets, 1)
		g := head.Backward(0, dl)
		g = blk.Backward(0, g)
		emb.Backward(0, g)
		for _, p := range CollectParams(layers) {
			for i := range p.Value.Data {
				p.Value.Data[i] -= 0.5 * p.Grad.Data[i]
			}
		}
		return loss
	}
	first := step()
	var last float64
	for i := 0; i < 30; i++ {
		last = step()
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

// paramElements sums the element counts of ps.
func paramElements(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Len()
	}
	return n
}

// maxAbsDiff returns max |a-b| over all elements of two equal-length tensors.
func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var m float64
	for i := range a.Data {
		m = max(m, math.Abs(float64(a.Data[i])-float64(b.Data[i])))
	}
	return m
}
