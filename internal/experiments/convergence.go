package experiments

import (
	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/pipeline"
	"chimera/internal/schedule"
)

// ConvergenceComparison makes §2's convergence-friendliness argument
// empirical on the real runtime: the same tiny GPT trained for the same
// number of iterations on the same data stream under (a) Chimera
// (synchronous — exact mini-batch SGD), and (b) PipeDream with weight
// stashing (asynchronous — stale weights). The paper's position: both
// typically converge, but only the synchronous scheme is *guaranteed* to
// match SGD; staleness introduces variance.
func ConvergenceComparison(iters int) (*Report, error) {
	r := newReport("convergence", "Synchronous (Chimera) vs asynchronous (PipeDream) convergence")
	spec := pipeline.ModelSpec{Vocab: 31, Dim: 16, Heads: 4, SeqLen: 8, Layers: 4, Seed: 5}
	const d, n, b = 4, 4, 2
	lr := func() optim.Optimizer { return &optim.SGD{LR: 0.08} }

	chimSched, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n})
	if err != nil {
		return nil, err
	}
	chim, err := pipeline.New(pipeline.Config{
		Schedule: chimSched, W: 1, Spec: spec, MicroBatch: b, NewOptimizer: lr,
	})
	if err != nil {
		return nil, err
	}
	pdSched, err := schedule.PipeDream(d, n)
	if err != nil {
		return nil, err
	}
	async, err := pipeline.New(pipeline.Config{
		Schedule: pdSched, W: 1, Spec: spec, MicroBatch: b, NewOptimizer: lr,
	})
	if err != nil {
		return nil, err
	}
	ref, err := pipeline.NewReference(spec, d, b, lr)
	if err != nil {
		return nil, err
	}

	// Identical data for all three trainers.
	sa := data.NewStream(spec.Vocab, spec.SeqLen, 500)
	sb := data.NewStream(spec.Vocab, spec.SeqLen, 500)
	sc := data.NewStream(spec.Vocab, spec.SeqLen, 500)
	var cLoss, aLoss, rLoss float64
	for i := 0; i < iters; i++ {
		if cLoss, err = chim.TrainIteration(sa.Next(b * n)); err != nil {
			return nil, err
		}
		if aLoss, err = async.TrainIteration(sb.Next(b * n)); err != nil {
			return nil, err
		}
		if rLoss, err = ref.TrainIteration(sc.Next(b * n)); err != nil {
			return nil, err
		}
		if i%4 == 0 || i == iters-1 {
			r.addf("iter %2d: chimera=%.4f pipedream=%.4f sequential-SGD=%.4f", i, cLoss, aLoss, rLoss)
		}
	}
	gap := cLoss - rLoss
	if gap < 0 {
		gap = -gap
	}
	r.addf("final: chimera tracks sequential SGD to %.1e; pipedream deviates by %.4f (stale weights)",
		gap, aLoss-rLoss)
	r.Metrics["chimera-final"] = cLoss
	r.Metrics["pipedream-final"] = aLoss
	r.Metrics["sgd-final"] = rLoss
	r.Metrics["chimera-sgd-gap"] = gap
	return r, nil
}
