package pipeline

import (
	"fmt"

	"chimera/internal/data"
	"chimera/internal/nn"
	"chimera/internal/optim"
	"chimera/internal/tensor"
)

// Reference is the sequential mini-batch SGD baseline: one model copy on
// one "worker", iterating micro-batches in order. Synchronous pipeline
// schedules must produce the same gradients and weights (up to floating
// point reassociation) — the paper's convergence-friendliness claim made
// executable.
type Reference struct {
	spec   ModelSpec
	d      int
	stages []*nn.Stage
	opt    []optim.Optimizer
	b      int
}

// NewReference builds the sequential baseline with the same stage-wise
// initialization as a Trainer with the given spec and depth.
func NewReference(spec ModelSpec, d, microBatch int, newOpt func() optim.Optimizer) (*Reference, error) {
	if err := spec.Validate(d); err != nil {
		return nil, err
	}
	if microBatch < 1 {
		return nil, fmt.Errorf("pipeline: MicroBatch must be ≥ 1, got %d", microBatch)
	}
	if newOpt == nil {
		newOpt = func() optim.Optimizer { return &optim.SGD{LR: 0.1} }
	}
	r := &Reference{spec: spec, d: d, b: microBatch}
	for st := 0; st < d; st++ {
		r.stages = append(r.stages, buildStage(spec, d, st))
		r.opt = append(r.opt, newOpt())
	}
	return r, nil
}

// TrainIteration consumes a whole mini-batch (any multiple of the
// micro-batch size) of SeqLen tokens and targets per sequence, every target
// id in [0, Vocab), accumulating gradients micro-batch by micro-batch and
// applying one optimizer step. Returns the mean loss.
func (r *Reference) TrainIteration(batch *data.Batch) (float64, error) {
	if err := r.spec.checkBatch(batch); err != nil {
		return 0, err
	}
	nMicros := batch.Sequences() / r.b
	rows := r.b * r.spec.SeqLen
	for _, st := range r.stages {
		st.ZeroGrads()
	}
	gradScale := float32(1) / float32(nMicros)
	var lossSum float64
	for m := 0; m < nMicros; m++ {
		mb := batch.MicroBatch(m*r.b, (m+1)*r.b)
		x := tensor.FromSlice(mb.FlatTokens(), rows)
		for _, st := range r.stages {
			x = st.Forward(m, x)
		}
		loss, dy := nn.CrossEntropy(x.Reshape(rows, r.spec.Vocab), mb.FlatTargets(), gradScale)
		lossSum += loss
		g := dy
		for i := len(r.stages) - 1; i >= 0; i-- {
			g = r.stages[i].Backward(m, g)
		}
	}
	for i, st := range r.stages {
		r.opt[i].Step(st.Params())
	}
	return lossSum / float64(nMicros), nil
}

// StageWeights returns the weight vector of stage st.
func (r *Reference) StageWeights(st int) []float32 { return r.stages[st].WeightVector() }
