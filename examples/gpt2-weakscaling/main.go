// gpt2-weakscaling reproduces the shape of the paper's headline experiment
// (Fig. 15): weak-scaling a 1.39B-parameter GPT-2 from 512 to 2,048
// simulated Piz Daint nodes, comparing Chimera against DAPPLE and GPipe at
// their best configurations.
package main

import (
	"fmt"
	"log"

	"chimera"
)

func main() {
	m := chimera.GPT2()
	dev, net := chimera.PizDaintNode(), chimera.AriesNetwork()
	fmt.Printf("weak scaling %s (%.2fB parameters), B̂ = P\n", m.Name, float64(m.TotalParams())/1e9)

	for _, p := range []int{512, 1024, 2048} {
		bhat := p
		fmt.Printf("\n%d nodes, mini-batch %d:\n", p, bhat)
		for _, scheme := range []string{"gpipe", "dapple", "chimera"} {
			best := 0.0
			var bestDesc string
			for _, d := range []int{8, 16, 32} {
				w := p / d
				n := bhat / w // B=1
				if n < 1 {
					continue
				}
				sched, err := chimera.Build(chimera.ScheduleSpec{Scheme: scheme, D: d, N: n})
				if err != nil {
					continue
				}
				res, recompute, err := chimera.SimulateAuto(chimera.SimConfig{
					Model: m, Schedule: sched, MicroBatch: 1, W: w, Device: dev, Network: net,
				})
				if err != nil || res.OOM {
					continue
				}
				if res.Throughput > best {
					best = res.Throughput
					r := ""
					if recompute {
						r = ", R"
					}
					bestDesc = fmt.Sprintf("W=%d D=%d%s: %.1f seq/s (bubble %.3f)", w, d, r, res.Throughput, res.BubbleRatio)
				}
			}
			if bestDesc == "" {
				log.Fatalf("%s: no feasible configuration at P=%d", scheme, p)
			}
			fmt.Printf("  %-8s %s\n", scheme, bestDesc)
		}
	}
	fmt.Println("\nexpected shape (paper Fig. 15): chimera on top at every scale, no recompute at D=32")
}
