// Package tensor implements the dense float32 tensor algebra that underpins
// the training substrate: shapes, blocked matrix multiplication, elementwise
// kernels, softmax/layernorm statistics, and seeded random initialization.
// It is deliberately minimal — just the operator set a GPT/BERT transformer
// block needs — but numerically careful (float64 accumulation in reductions)
// so that gradient-equivalence tests across pipeline schedules are tight.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elems, have %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape of identical element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns element (i, j) of a 2-D tensor.
func (t *Tensor) At(i, j int) float32 {
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns element (i, j) of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float32) {
	t.Data[i*t.Shape[1]+j] = v
}

// RandN fills the tensor with N(0, std²) samples from rng.
func (t *Tensor) RandN(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// --- elementwise ---

// Add computes dst = a + b (same shape), returning dst.
func Add(dst, a, b *Tensor) *Tensor {
	checkSameLen(a, b)
	checkSameLen(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// AddInto accumulates src into dst.
func AddInto(dst, src *Tensor) {
	checkSameLen(dst, src)
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
}

// Scale computes dst = a * s.
func Scale(dst, a *Tensor, s float32) *Tensor {
	checkSameLen(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * s
	}
	return dst
}

// AddBiasRows adds bias (length C) to each row of x (R×C), in place.
func AddBiasRows(x, bias *Tensor) {
	r, c := x.Shape[0], x.Shape[1]
	if bias.Len() != c {
		panic("tensor: bias length mismatch")
	}
	for i := 0; i < r; i++ {
		row := x.Data[i*c : (i+1)*c]
		for j := range row {
			row[j] += bias.Data[j]
		}
	}
}

// --- matmul ---

// MatMul computes dst = a(M×K) · b(K×N). dst must be M×N and distinct from
// a and b. The kernel loops i-k-j for streaming access on b's rows.
func MatMul(dst, a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul %v × %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	dst.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j := range brow {
				drow[j] += av * brow[j]
			}
		}
	}
	return dst
}

// MatMulTransB computes dst = a(M×K) · bᵀ where b is N×K.
func MatMulTransB(dst, a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTB %v × %vᵀ -> %v", a.Shape, b.Shape, dst.Shape))
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var acc float64
			for kk := 0; kk < k; kk++ {
				acc += float64(arow[kk]) * float64(brow[kk])
			}
			dst.Data[i*n+j] = float32(acc)
		}
	}
	return dst
}

// MatMulTransA computes dst = aᵀ(K×M)ᵀ... i.e. dst(K×N) = aᵀ · b where a is
// M×K and b is M×N. Used for weight gradients (xᵀ · dy).
func MatMulTransA(dst, a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	m2, n := b.Shape[0], b.Shape[1]
	if m != m2 || dst.Shape[0] != k || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTA %vᵀ × %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	dst.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		brow := b.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			drow := dst.Data[kk*n : (kk+1)*n]
			for j := range brow {
				drow[j] += av * brow[j]
			}
		}
	}
	return dst
}

// --- nonlinearities and reductions ---

// SoftmaxRows applies a numerically stable softmax to each row of x (R×C),
// writing into dst (may alias x).
func SoftmaxRows(dst, x *Tensor) {
	r, c := x.Shape[0], x.Shape[1]
	for i := 0; i < r; i++ {
		row := x.Data[i*c : (i+1)*c]
		out := dst.Data[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// GELU applies the tanh-approximation GELU elementwise: dst = gelu(x).
func GELU(dst, x *Tensor) {
	checkSameLen(dst, x)
	for i, v := range x.Data {
		dst.Data[i] = geluScalar(v)
	}
}

const geluC = 0.7978845608028654 // sqrt(2/pi)

func geluScalar(v float32) float32 {
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x))))
}

// GELUGrad computes dst = dgelu(x)/dx ⊙ dy.
func GELUGrad(dst, x, dy *Tensor) {
	checkSameLen(dst, x)
	checkSameLen(x, dy)
	for i, v := range x.Data {
		xx := float64(v)
		inner := geluC * (xx + 0.044715*xx*xx*xx)
		t := math.Tanh(inner)
		sech2 := 1 - t*t
		dinner := geluC * (1 + 3*0.044715*xx*xx)
		d := 0.5*(1+t) + 0.5*xx*sech2*dinner
		dst.Data[i] = float32(d) * dy.Data[i]
	}
}

// RowMeanVar returns per-row mean and (biased) variance of x (R×C).
func RowMeanVar(x *Tensor) (mean, variance []float32) {
	r, c := x.Shape[0], x.Shape[1]
	mean = make([]float32, r)
	variance = make([]float32, r)
	for i := 0; i < r; i++ {
		row := x.Data[i*c : (i+1)*c]
		var s float64
		for _, v := range row {
			s += float64(v)
		}
		m := s / float64(c)
		var vs float64
		for _, v := range row {
			d := float64(v) - m
			vs += d * d
		}
		mean[i] = float32(m)
		variance[i] = float32(vs / float64(c))
	}
	return mean, variance
}

func checkSameLen(a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: length mismatch %v vs %v", a.Shape, b.Shape))
	}
}
