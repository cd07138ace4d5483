// Package nn implements the neural-network training substrate: transformer
// layers with explicit, micro-batch-keyed forward and backward passes.
//
// Unlike a tape autograd, every layer caches its forward activations per
// micro-batch id and exposes Backward(mb, dy) — exactly the contract a
// pipeline stage needs when several micro-batches are in flight (1F1B,
// Chimera) and when activation recomputation or weight stashing is on.
// Gradient correctness is pinned by finite-difference tests.
package nn

import (
	"fmt"
	"math/rand"

	"chimera/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and its gradient buffer.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward must be callable for several
// micro-batches before any Backward; Backward(mb, dy) consumes the cached
// activations of micro-batch mb (freeing them) and accumulates parameter
// gradients.
type Layer interface {
	Forward(mb int, x *tensor.Tensor) *tensor.Tensor
	Backward(mb int, dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// DropCache discards cached activations for micro-batch mb without
	// running backward (used by activation recomputation).
	DropCache(mb int)
}

// InitAll seeds every parameter of the layers with N(0, std²) values; biases
// and layernorm parameters keep their conventional init (0 / 1) because each
// layer initializes itself at construction, so InitAll only perturbs weights
// explicitly registered as needing random init.
type initializer interface{ initWeights(rng *rand.Rand) }

// InitWeights randomly initializes all layers that support it, in order,
// using a deterministic stream derived from seed.
func InitWeights(layers []Layer, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range layers {
		if in, ok := l.(initializer); ok {
			in.initWeights(rng)
		}
	}
}

// CollectParams flattens the parameters of a layer list.
func CollectParams(layers []Layer) []*Param {
	var out []*Param
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears gradients on all parameters of the layers.
func ZeroGrads(layers []Layer) {
	for _, l := range layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

// cacheKeyPanic reports a missing activation cache — a schedule bug
// (backward issued for a micro-batch whose forward never ran here).
func cacheKeyPanic(layer string, mb int) {
	panic(fmt.Sprintf("nn: %s backward for micro-batch %d without cached forward", layer, mb))
}
