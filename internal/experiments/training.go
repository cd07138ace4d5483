package experiments

import (
	"math"

	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/pipeline"
	"chimera/internal/schedule"
)

// TrainingEquivalence runs the convergence-friendliness claim end to end on
// the real runtime: a tiny GPT trained under Chimera and under sequential
// mini-batch SGD on identical data must produce matching losses and
// gradients, while the loss decreases.
func TrainingEquivalence(iters int) (*Report, error) {
	r := newReport("training-equivalence", "Real pipeline training ≡ sequential mini-batch SGD")
	spec := pipeline.ModelSpec{Vocab: 31, Dim: 16, Heads: 4, SeqLen: 8, Layers: 4, Seed: 1}
	sched, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		return nil, err
	}
	newOpt := func() optim.Optimizer { return &optim.Momentum{LR: 0.05, Mu: 0.9} }
	tr, err := pipeline.New(pipeline.Config{
		Schedule: sched, W: 2, Spec: spec, MicroBatch: 2, NewOptimizer: newOpt,
	})
	if err != nil {
		return nil, err
	}
	ref, err := pipeline.NewReference(spec, 4, 2, newOpt)
	if err != nil {
		return nil, err
	}
	stream := data.NewStream(spec.Vocab, spec.SeqLen, 99)
	var firstLoss, lastLoss, worstDiff float64
	for i := 0; i < iters; i++ {
		batch := stream.Next(2 * 4 * 2) // B·N·W
		ld, err := tr.TrainIteration(batch)
		if err != nil {
			return nil, err
		}
		lr, err := ref.TrainIteration(batch)
		if err != nil {
			return nil, err
		}
		if d := math.Abs(ld - lr); d > worstDiff {
			worstDiff = d
		}
		if i == 0 {
			firstLoss = ld
		}
		lastLoss = ld
		if i%5 == 0 || i == iters-1 {
			r.addf("iter %2d: chimera loss=%.4f sequential loss=%.4f |Δ|=%.2e", i, ld, lr, math.Abs(ld-lr))
		}
	}
	// Weight agreement after training.
	var maxW float64
	for st := 0; st < 4; st++ {
		a, b := tr.StageWeights(st, 0), ref.StageWeights(st)
		for i := range a {
			d := math.Abs(float64(a[i]) - float64(b[i]))
			if d > maxW {
				maxW = d
			}
		}
	}
	r.addf("loss %.4f → %.4f over %d iterations; worst loss gap %.2e; worst weight gap %.2e",
		firstLoss, lastLoss, iters, worstDiff, maxW)
	r.Metrics["first-loss"] = firstLoss
	r.Metrics["last-loss"] = lastLoss
	r.Metrics["worst-loss-gap"] = worstDiff
	r.Metrics["worst-weight-gap"] = maxW
	return r, nil
}

// Experiment is one entry of the index: the ID its report carries and the
// harness that produces it, so callers can select by ID before running.
type Experiment struct {
	ID  string
	Run func() (*Report, error)
}

// All returns every experiment in DESIGN.md's index order. trainingIters
// bounds the real-training demo length.
func All(trainingIters int) []Experiment {
	return []Experiment{
		{"table-2", func() (*Report, error) { return Table2(4, 4) }},
		{"table-3", func() (*Report, error) { return Table3(16, 16) }},
		{"figure-1", Figure1},
		{"figure-2", func() (*Report, error) { return Figure2(4, 4) }},
		{"figure-6", Figure6},
		{"figure-7", Figure7},
		{"figure-8", Figure8},
		{"figure-9", Figure9},
		{"figure-10", Figure10},
		{"figure-11", Figure11},
		{"figure-12", Figure12},
		{"figure-13", Figure13},
		{"figure-14", Figure14},
		{"figure-15", Figure15},
		{"figure-16", Figure16},
		{"figure-17", Figure17},
		{"figure-18", Figure18},
		{"figure-19", Figure19},
		{"model-accuracy", ModelAccuracy},
		{"ablation-allreduce", AblationAllreduce},
		{"ablation-greedy-b", AblationGreedyB},
		{"ablation-recompute", AblationRecompute},
		{"ablation-interference", AblationInterference},
		{"ablation-zero", AblationZeRO},
		{"ablation-compression", AblationCompression},
		{"ablation-heterogeneous", AblationHeterogeneous},
		{"fleet-allocation", FleetAllocation},
		{"ablation-elastic", AblationElastic},
		{"training-equivalence", func() (*Report, error) { return TrainingEquivalence(trainingIters) }},
		{"convergence", func() (*Report, error) { return ConvergenceComparison(2 * trainingIters) }},
	}
}
