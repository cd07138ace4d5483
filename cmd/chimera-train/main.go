// chimera-train trains a small transformer for real under a pipeline
// schedule (goroutine workers, message passing, gradient allreduce) and
// optionally verifies gradient equivalence with sequential mini-batch SGD —
// the paper's convergence-friendliness claim, executable. On the pipedream
// schedule it trains with PipeDream's weight stashing instead, and -verify
// reports how far the stale weights drift from sequential SGD.
//
// Example:
//
//	chimera-train -scheme chimera -d 4 -n 4 -w 2 -iters 20 -verify
//	chimera-train -scheme pipedream -d 4 -n 4 -iters 20
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/pipeline"
	"chimera/internal/schedule"
)

func main() {
	scheme := flag.String("scheme", "chimera", "pipeline scheme: chimera|gpipe|dapple|gems|1f1b (synchronous, SGD-equivalent) or pipedream (asynchronous weight stashing)")
	d := flag.Int("d", 4, "pipeline stages D")
	n := flag.Int("n", 4, "micro-batches per worker N")
	w := flag.Int("w", 1, "data-parallel width W")
	f := flag.Int("f", 1, "chimera pipelines per direction")
	b := flag.Int("b", 2, "micro-batch size (sequences)")
	iters := flag.Int("iters", 20, "training iterations")
	lr := flag.Float64("lr", 0.05, "learning rate (momentum 0.9)")
	verify := flag.Bool("verify", true, "compare against sequential mini-batch SGD")
	layers := flag.Int("layers", 4, "transformer layers")
	dim := flag.Int("dim", 16, "model width")
	heads := flag.Int("heads", 4, "attention heads")
	seqLen := flag.Int("seq", 8, "sequence length")
	vocab := flag.Int("vocab", 31, "vocabulary size")
	seed := flag.Int64("seed", 7, "weight and data seed")
	flag.Parse()

	s, err := schedule.Build(schedule.Spec{Scheme: *scheme, D: *d, N: *n, F: *f})
	check(err)

	spec := pipeline.ModelSpec{Vocab: *vocab, Dim: *dim, Heads: *heads, SeqLen: *seqLen, Layers: *layers, Seed: *seed}
	newOpt := func() optim.Optimizer { return &optim.Momentum{LR: *lr, Mu: 0.9} }
	tr, err := pipeline.New(pipeline.Config{
		Schedule: s, W: *w, Spec: spec, MicroBatch: *b, NewOptimizer: newOpt,
	})
	check(err)
	var ref *pipeline.Reference
	if *verify {
		ref, err = pipeline.NewReference(spec, *d, *b, newOpt)
		check(err)
	}
	stream := data.NewStream(*vocab, *seqLen, *seed+1)
	fmt.Printf("training %s (D=%d N=%d W=%d B=%d, %d workers) on a %d-layer transformer\n",
		*scheme, *d, *n, *w, *b, *w**d, *layers)
	for i := 0; i < *iters; i++ {
		batch := stream.Next(*b * *n * *w)
		loss, err := tr.TrainIteration(batch)
		check(err)
		line := fmt.Sprintf("iter %3d  loss %.4f", i, loss)
		if ref != nil {
			refLoss, err := ref.TrainIteration(batch)
			check(err)
			line += fmt.Sprintf("  sequential %.4f  |Δ| %.2e", refLoss, math.Abs(loss-refLoss))
		}
		fmt.Println(line)
	}
	if ref != nil {
		var worst float64
		for st := 0; st < *d; st++ {
			a, b := tr.StageWeights(st, 0), ref.StageWeights(st)
			for i := range a {
				if diff := math.Abs(float64(a[i]) - float64(b[i])); diff > worst {
					worst = diff
				}
			}
		}
		fmt.Printf("max weight deviation from sequential SGD after %d iterations: %.2e\n", *iters, worst)
		if !s.Synchronous {
			fmt.Println("(asynchronous: stale weights, no equivalence expected)")
		} else if worst > 1e-3 {
			fmt.Println("WARNING: deviation above tolerance — synchronous equivalence violated")
			os.Exit(2)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimera-train:", err)
		os.Exit(1)
	}
}
