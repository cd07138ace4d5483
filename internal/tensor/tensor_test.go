package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// transpose returns aᵀ for a 2-D tensor: the reference the transposed
// matmul kernels are checked against.
func transpose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func TestNewShapeAndLen(t *testing.T) {
	x := New(3, 4, 5)
	if x.Len() != 60 || len(x.Shape) != 3 || x.Shape[1] != 4 {
		t.Fatalf("shape bookkeeping broken: %v", x.Shape)
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapePreservesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Fatalf("reshape broke layout: %v", y.Data)
	}
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("reshape must share storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	out := New(4, 4)
	MatMul(out, a, id)
	if maxAbsDiff(out, a) != 0 {
		t.Fatal("A·I != A")
	}
	MatMul(out, id, a)
	if maxAbsDiff(out, a) != 0 {
		t.Fatal("I·A != A")
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	out := New(2, 2)
	MatMul(out, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("matmul[%d] = %v want %v", i, out.Data[i], w)
		}
	}
}

func TestMatMulTransBEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 5, 7)
	b := randTensor(rng, 6, 7) // b is N×K; compare a·bᵀ with a·transpose(b)
	got := New(5, 6)
	MatMulTransB(got, a, b)
	want := New(5, 6)
	MatMul(want, a, transpose(b))
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("transB mismatch %v", d)
	}
}

func TestMatMulTransAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 6, 4) // M×K
	b := randTensor(rng, 6, 5) // M×N
	got := New(4, 5)
	MatMulTransA(got, a, b)
	want := New(4, 5)
	MatMul(want, transpose(a), b)
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("transA mismatch %v", d)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n, p := 2+rng.Intn(4), 2+rng.Intn(4), 2+rng.Intn(4), 2+rng.Intn(4)
		a, b, c := randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, n, p)
		ab := MatMul(New(m, n), a, b)
		abc1 := MatMul(New(m, p), ab, c)
		bc := MatMul(New(k, p), b, c)
		abc2 := MatMul(New(m, p), a, bc)
		return maxAbsDiff(abc1, abc2) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randTensor(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		return maxAbsDiff(transpose(transpose(a)), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 8, 13)
	Scale(x, x, 10) // stress numerical stability
	out := New(8, 13)
	SoftmaxRows(out, x)
	for i := 0; i < 8; i++ {
		var s float64
		for j := 0; j < 13; j++ {
			v := out.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 1, 3)
	y := FromSlice([]float32{101, 102, 103}, 1, 3)
	ox, oy := New(1, 3), New(1, 3)
	SoftmaxRows(ox, x)
	SoftmaxRows(oy, y)
	if d := maxAbsDiff(ox, oy); d > 1e-6 {
		t.Fatalf("softmax not shift invariant: %v", d)
	}
}

func TestGELUGradMatchesFiniteDifference(t *testing.T) {
	xs := []float32{-3, -1, -0.1, 0, 0.1, 1, 3}
	x := FromSlice(append([]float32(nil), xs...), len(xs))
	dy := New(len(xs))
	dy.Fill(1)
	grad := New(len(xs))
	GELUGrad(grad, x, dy)
	const h = 1e-3
	for i, v := range xs {
		fp := geluScalar(v + h)
		fm := geluScalar(v - h)
		fd := (fp - fm) / (2 * h)
		if math.Abs(float64(fd-grad.Data[i])) > 1e-3 {
			t.Fatalf("gelu grad at %v: analytic %v fd %v", v, grad.Data[i], fd)
		}
	}
}

func TestRowMeanVar(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	mean, variance := RowMeanVar(x)
	if math.Abs(float64(mean[0])-2.5) > 1e-6 {
		t.Fatalf("mean %v", mean[0])
	}
	if math.Abs(float64(variance[0])-1.25) > 1e-6 {
		t.Fatalf("var %v", variance[0])
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	dst := New(3)
	Add(dst, a, b)
	if dst.Data[2] != 9 {
		t.Fatalf("add: %v", dst.Data)
	}
	Scale(dst, a, 2)
	if dst.Data[0] != 2 {
		t.Fatalf("scale: %v", dst.Data)
	}
	AddInto(dst, b)
	if dst.Data[0] != 6 {
		t.Fatalf("addinto: %v", dst.Data)
	}
}

func TestAddBiasRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	bias := FromSlice([]float32{10, 20}, 2)
	AddBiasRows(x, bias)
	want := []float32{11, 22, 13, 24}
	for i, w := range want {
		if x.Data[i] != w {
			t.Fatalf("bias add: %v", x.Data)
		}
	}
}

func TestSumAndFill(t *testing.T) {
	sum := func(x *Tensor) (s float64) {
		for _, v := range x.Data {
			s += float64(v)
		}
		return s
	}
	x := New(10)
	x.Fill(1.5)
	if math.Abs(sum(x)-15) > 1e-6 {
		t.Fatalf("sum %v", sum(x))
	}
	x.Zero()
	if sum(x) != 0 {
		t.Fatal("zero failed")
	}
}

func TestRandNDeterministic(t *testing.T) {
	a, b := New(100), New(100)
	a.RandN(rand.New(rand.NewSource(7)), 0.02)
	b.RandN(rand.New(rand.NewSource(7)), 0.02)
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("seeded RandN must be deterministic")
	}
	var nonzero bool
	for _, v := range a.Data {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("RandN produced all zeros")
	}
}

// maxAbsDiff returns max |a-b| over all elements of two equal-length tensors.
func maxAbsDiff(a, b *Tensor) float64 {
	checkSameLen(a, b)
	var m float64
	for i := range a.Data {
		m = max(m, math.Abs(float64(a.Data[i])-float64(b.Data[i])))
	}
	return m
}
