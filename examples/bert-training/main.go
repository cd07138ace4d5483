// bert-training runs real pipeline-parallel training of a miniature BERT on
// goroutine workers under Chimera's bidirectional schedule — with a
// data-parallel dimension (§3.3) — and verifies the paper's convergence
// claim: gradients and weights match sequential mini-batch SGD exactly
// (up to float reassociation).
package main

import (
	"fmt"
	"log"
	"math"

	"chimera"
)

func main() {
	spec := chimera.ModelSpec{Vocab: 67, Dim: 32, Heads: 4, SeqLen: 16, Layers: 8, Seed: 3}
	const (
		d, n, w = 4, 4, 2 // 4 stages × 2 pipeline copies = 8 workers
		b       = 2       // sequences per micro-batch
		iters   = 15
	)
	sched, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: d, N: n})
	if err != nil {
		log.Fatal(err)
	}
	newOpt := func() chimera.Optimizer { return chimera.NewMomentum(0.05, 0.9) }
	trainer, err := chimera.NewTrainer(chimera.TrainerConfig{
		Schedule: sched, W: w, Spec: spec, MicroBatch: b,
		NewOptimizer: newOpt, EagerSync: true, // §3.2 eager gradient sync
	})
	if err != nil {
		log.Fatal(err)
	}
	ref, err := chimera.NewReference(spec, d, b, newOpt)
	if err != nil {
		log.Fatal(err)
	}

	stream := chimera.NewStream(spec.Vocab, spec.SeqLen, 42)
	fmt.Printf("training an 8-layer mini-BERT under Chimera (D=%d, N=%d, W=%d → %d workers)\n", d, n, w, d*w)
	for i := 0; i < iters; i++ {
		batch := stream.Next(b * n * w)
		loss, err := trainer.TrainIteration(batch)
		if err != nil {
			log.Fatal(err)
		}
		refLoss, err := ref.TrainIteration(batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("iter %2d  pipeline loss %.4f  sequential loss %.4f  |Δ| %.1e\n",
			i, loss, refLoss, math.Abs(loss-refLoss))
	}

	var worst float64
	for st := 0; st < d; st++ {
		pw, rw := trainer.StageWeights(st, 0), ref.StageWeights(st)
		for i := range pw {
			if diff := math.Abs(float64(pw[i]) - float64(rw[i])); diff > worst {
				worst = diff
			}
		}
	}
	fmt.Printf("\nmax weight deviation from sequential SGD: %.2e — synchronous, no stale weights\n", worst)
}
