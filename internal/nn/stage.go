package nn

import (
	"chimera/internal/tensor"
)

// Stage is an ordered group of layers executed on one pipeline worker: the
// unit of model partitioning in pipeline parallelism. It chains layer
// forward/backward passes, supports activation recomputation, and exposes a
// flat gradient vector for allreduce-based synchronization.
type Stage struct {
	// ID is the pipeline stage index this group of layers implements.
	ID     int
	Layers []Layer

	// Recompute, when true, drops intermediate activations after Forward and
	// replays the forward pass from the stored boundary input on Backward
	// (activation recomputation, Chen et al.; costs ≈1 extra forward).
	Recompute bool

	inputs map[int]*tensor.Tensor // boundary inputs kept for recomputation
}

// NewStage builds a stage from layers.
func NewStage(id int, layers ...Layer) *Stage {
	return &Stage{ID: id, Layers: layers, inputs: make(map[int]*tensor.Tensor)}
}

// Forward runs micro-batch mb through all layers.
func (s *Stage) Forward(mb int, x *tensor.Tensor) *tensor.Tensor {
	if s.Recompute {
		s.inputs[mb] = x.Clone()
	}
	y := x
	for _, l := range s.Layers {
		y = l.Forward(mb, y)
	}
	if s.Recompute {
		for _, l := range s.Layers {
			l.DropCache(mb)
		}
	}
	return y
}

// Backward runs micro-batch mb backward through all layers, returning the
// gradient w.r.t. the stage input. With Recompute set, the forward pass is
// replayed first.
func (s *Stage) Backward(mb int, dy *tensor.Tensor) *tensor.Tensor {
	if s.Recompute {
		x, ok := s.inputs[mb]
		if !ok {
			cacheKeyPanic("stage", mb)
		}
		delete(s.inputs, mb)
		y := x
		for _, l := range s.Layers {
			y = l.Forward(mb, y)
		}
	}
	g := dy
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g = s.Layers[i].Backward(mb, g)
	}
	return g
}

// Params returns all stage parameters.
func (s *Stage) Params() []*Param { return CollectParams(s.Layers) }

// ZeroGrads clears all parameter gradients.
func (s *Stage) ZeroGrads() { ZeroGrads(s.Layers) }

// GradVector flattens all parameter gradients into one contiguous slice
// (copied), in deterministic parameter order.
func (s *Stage) GradVector() []float32 {
	n := 0
	for _, p := range s.Params() {
		n += p.Grad.Len()
	}
	out := make([]float32, 0, n)
	for _, p := range s.Params() {
		out = append(out, p.Grad.Data...)
	}
	return out
}

// SetGradVector writes a flat gradient slice back into parameter gradients.
func (s *Stage) SetGradVector(v []float32) {
	off := 0
	for _, p := range s.Params() {
		n := p.Grad.Len()
		copy(p.Grad.Data, v[off:off+n])
		off += n
	}
	if off != len(v) {
		panic("nn: gradient vector length mismatch")
	}
}

// WeightVector flattens all parameter values (copied).
func (s *Stage) WeightVector() []float32 {
	var out []float32
	for _, p := range s.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetWeightVector writes flat weights back into parameters.
func (s *Stage) SetWeightVector(v []float32) {
	off := 0
	for _, p := range s.Params() {
		n := p.Value.Len()
		copy(p.Value.Data, v[off:off+n])
		off += n
	}
	if off != len(v) {
		panic("nn: weight vector length mismatch")
	}
}
