// chimera-plan runs the §3.4 performance model to select the best (W, D, B)
// Chimera configuration for a worker count and mini-batch size. With -json
// it emits the same wire shape chimera-serve's /v1/plan serves (one
// serialization path, internal/serve's codecs).
//
// Example:
//
//	chimera-plan -model bert48 -p 32 -bhat 512
//	chimera-plan -model bert48 -p 32 -bhat 512 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/serve"
	"chimera/internal/sim"
)

func main() {
	modelName := flag.String("model", "bert48", "model: bert48|bert48-512|gpt2|gpt2-32")
	p := flag.Int("p", 32, "total workers P = W·D")
	bhat := flag.Int("bhat", 512, "mini-batch size B̂")
	maxB := flag.Int("maxb", 64, "micro-batch search ceiling")
	platform := flag.String("platform", "pizdaint", "platform: pizdaint|v100")
	speed := flag.String("speed", "", "per-worker speed factors, comma-separated; fixes pipeline depth D to the list length")
	scheduler := flag.String("scheduler", "", "placement policy: "+strings.Join(schedule.Schedulers(), "|")+"|auto (list policies re-shape the pipeline around -speed stragglers; auto sweeps all)")
	workers := flag.Int("workers", 0, "planner worker-pool size (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.Bool("json", false, "emit the /v1/plan wire format instead of the table")
	flag.Parse()

	// The flags resolve through the /v1/plan codec, so the CLI refuses
	// exactly what the service refuses, with the same message.
	factors, err := sim.DecodeSpeedFactors(*speed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimera-plan:", err)
		os.Exit(1)
	}
	req, err := serve.PlanRequest{
		Model: serve.ModelRef{Preset: *modelName}, P: *p, MiniBatch: *bhat, MaxB: *maxB,
		SpeedFactors: factors, Scheduler: *scheduler,
		Platform: serve.PlatformRef{Preset: *platform},
	}.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimera-plan:", err)
		os.Exit(1)
	}
	eng := engine.Default()
	if *workers > 0 {
		eng = engine.New(engine.Workers(*workers))
	}
	preds, err := perfmodel.PlanOn(eng, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimera-plan:", err)
		os.Exit(1)
	}
	if *jsonOut {
		raw, err := json.MarshalIndent(serve.NewPlanResponse(req.Model.Name, req.P, req.MiniBatch, preds), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "chimera-plan:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
		return
	}
	fmt.Printf("%s on %d workers, B̂=%d — Chimera configurations ranked by Eq. 1:\n", req.Model.Name, req.P, req.MiniBatch)
	fmt.Printf("%-4s %-4s %-4s %-4s %-10s %-9s %-12s %-12s %s\n", "W", "D", "B", "N", "recompute", "placement", "iter (s)", "seq/s", "critical path")
	for i, pr := range preds {
		marker := " "
		if i == 0 {
			marker = "*"
		}
		pol := pr.Scheduler
		if pol == "" {
			pol = "fixed"
		}
		fmt.Printf("%s %-4d %-4d %-4d %-4d %-10v %-9s %-12.4f %-12.1f Cf=%d Cb=%d\n",
			marker, pr.W, pr.D, pr.B, pr.N, pr.Recompute, pol, pr.IterTime, pr.Throughput, pr.Cf, pr.Cb)
	}
}
