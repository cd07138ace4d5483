// Quickstart: build Chimera's bidirectional pipeline schedule, look at it,
// measure its paper-facing properties, and simulate a training iteration on
// a Piz-Daint-like cluster.
package main

import (
	"fmt"
	"log"

	"chimera"
)

func main() {
	// 1. A Chimera schedule: D=4 stages, N=4 micro-batches per worker.
	sched, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 4, N: 4})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Render the timeline (backward = 2× forward, as in Fig. 3).
	art, err := chimera.RenderASCII(sched, chimera.UnitPractical)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(art)

	// 3. Paper-facing analysis: bubble ratio and memory intervals (Table 2).
	analysis, err := chimera.Analyze(sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis)

	// 4. Compare with DAPPLE, the state-of-the-art synchronous baseline.
	dapple, err := chimera.Build(chimera.ScheduleSpec{Scheme: "dapple", D: 4, N: 4})
	if err != nil {
		log.Fatal(err)
	}
	da, err := chimera.Analyze(dapple)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(da)
	fmt.Printf("bubble reduction vs DAPPLE: %.0f%%\n\n",
		100*(1-analysis.BubbleRatioEqual/da.BubbleRatioEqual))

	// 5. Simulate one BERT-48 training iteration on 32 P100 nodes.
	bigSched, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: 8, N: 8, Concat: chimera.Direct})
	if err != nil {
		log.Fatal(err)
	}
	res, err := chimera.Simulate(chimera.SimConfig{
		Model:      chimera.BERT48(),
		Schedule:   bigSched,
		MicroBatch: 8,
		W:          4, // 4 data-parallel pipelines × 8 stages = 32 workers
		Device:     chimera.PizDaintNode(),
		Network:    chimera.AriesNetwork(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BERT-48 on 32 simulated P100 nodes (W=4, D=8, B=8):\n")
	fmt.Printf("  iteration %.3f s, %.1f sequences/s, bubble ratio %.3f\n",
		res.IterTime, res.Throughput, res.BubbleRatio)
}
