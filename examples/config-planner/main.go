// config-planner demonstrates §3.4: Chimera's greedy micro-batch policy
// plus the α-β performance model shrink the (W, D, B) tuning space to a
// ranked shortlist, and the model's prediction stays within 10% of the
// simulated "practical" throughput.
package main

import (
	"fmt"
	"log"
	"math"

	"chimera"
)

func main() {
	m := chimera.BERT48()
	req := chimera.PlanRequest{
		Model: m, P: 32, MiniBatch: 512,
		Device: chimera.PizDaintNode(), Network: chimera.AriesNetwork(),
		MaxB: 64,
	}
	preds, err := chimera.Plan(nil, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %d workers, B̂=%d — Eq. 1 ranking:\n", m.Name, req.P, req.MiniBatch)
	for i, pr := range preds {
		// Cross-check each prediction against the simulator.
		sched, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", D: pr.D, N: pr.N, Concat: chimera.Direct})
		if err != nil {
			log.Fatal(err)
		}
		res, err := chimera.Simulate(chimera.SimConfig{
			Model: m, Schedule: sched, MicroBatch: pr.B, W: pr.W,
			Recompute: pr.Recompute, Device: req.Device, Network: req.Network,
		})
		if err != nil {
			log.Fatal(err)
		}
		errPct := 100 * math.Abs(pr.IterTime-res.IterTime) / res.IterTime
		mark := " "
		if i == 0 {
			mark = "*"
		}
		fmt.Printf("%s W=%-3d D=%-3d B=%-3d N=%-3d  model %.1f seq/s | simulated %.1f seq/s | error %.1f%%\n",
			mark, pr.W, pr.D, pr.B, pr.N, pr.Throughput, res.Throughput, errPct)
	}
	fmt.Println("\ngreedy max-B means only (W, D) is searched — the reduced tuning space of §3.4")
}
