// Package compress implements the gradient-compression codecs the paper's
// conclusion names as the next step for reducing gradient-synchronization
// cost: symmetric int8 quantization (QSGD-style) and top-k sparsification.
// The training runtime uses them for allgather-based lossy gradient
// exchange; the simulator models their bandwidth reduction.
package compress

import (
	"math"
	"sort"
)

// Quantized8 is a symmetric 8-bit quantization of a float vector.
type Quantized8 struct {
	Scale float32
	Data  []int8
}

// Quantize8 encodes v with a single symmetric scale: q = round(v/scale),
// scale = max|v|/127. The maximum elementwise error is scale/2.
func Quantize8(v []float32) Quantized8 {
	var maxAbs float32
	for _, x := range v {
		if a := abs32(x); a > maxAbs {
			maxAbs = a
		}
	}
	q := Quantized8{Data: make([]int8, len(v))}
	if maxAbs == 0 {
		q.Scale = 1
		return q
	}
	q.Scale = maxAbs / 127
	inv := 1 / q.Scale
	for i, x := range v {
		r := math.RoundToEven(float64(x * inv))
		if r > 127 {
			r = 127
		}
		if r < -127 {
			r = -127
		}
		q.Data[i] = int8(r)
	}
	return q
}

// Dequantize8 decodes into dst (allocated if nil), returning dst.
func Dequantize8(q Quantized8, dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, len(q.Data))
	}
	for i, d := range q.Data {
		dst[i] = float32(d) * q.Scale
	}
	return dst
}

// Sparse is a top-k sparsification of a float vector.
type Sparse struct {
	Len     int
	Indices []int32
	Values  []float32
}

// TopK keeps the k entries of v with the largest magnitude (ties broken by
// index for determinism — replicas must produce identical encodings).
func TopK(v []float32, k int) Sparse {
	if k > len(v) {
		k = len(v)
	}
	idx := make([]int32, len(v))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := abs32(v[idx[a]]), abs32(v[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	kept := idx[:k]
	sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
	s := Sparse{Len: len(v), Indices: make([]int32, k), Values: make([]float32, k)}
	copy(s.Indices, kept)
	for i, ix := range s.Indices {
		s.Values[i] = v[ix]
	}
	return s
}

// Dense decodes into dst (allocated if nil), zero-filling dropped entries.
func (s Sparse) Dense(dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, s.Len)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	for i, ix := range s.Indices {
		dst[ix] = s.Values[i]
	}
	return dst
}

// PackQuantized flattens a Quantized8 into a float32 wire payload (scale
// followed by one value per slot — the in-process communicator carries
// float32; real deployments would pack 4 int8 per word, which the
// simulator's bandwidth factor models).
func PackQuantized(q Quantized8) []float32 {
	out := make([]float32, 1+len(q.Data))
	out[0] = q.Scale
	for i, d := range q.Data {
		out[i+1] = float32(d)
	}
	return out
}

// UnpackQuantized reverses PackQuantized.
func UnpackQuantized(payload []float32) Quantized8 {
	q := Quantized8{Scale: payload[0], Data: make([]int8, len(payload)-1)}
	for i, f := range payload[1:] {
		q.Data[i] = int8(f)
	}
	return q
}

// PackSparse flattens a Sparse into a float32 wire payload:
// [len, k, idx..., val...].
func PackSparse(s Sparse) []float32 {
	k := len(s.Indices)
	out := make([]float32, 2+2*k)
	out[0] = float32(s.Len)
	out[1] = float32(k)
	for i, ix := range s.Indices {
		out[2+i] = float32(ix)
	}
	copy(out[2+k:], s.Values)
	return out
}

// UnpackSparse reverses PackSparse.
func UnpackSparse(payload []float32) Sparse {
	n := int(payload[0])
	k := int(payload[1])
	s := Sparse{Len: n, Indices: make([]int32, k), Values: make([]float32, k)}
	for i := 0; i < k; i++ {
		s.Indices[i] = int32(payload[2+i])
	}
	copy(s.Values, payload[2+k:])
	return s
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
