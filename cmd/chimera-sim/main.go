// chimera-sim simulates one training iteration of a pipeline scheme on a
// calibrated cluster and prints throughput, bubble ratio and per-worker
// memory. With -json it emits the same wire shape chimera-serve's
// /v1/simulate serves (one serialization path, internal/serve's codecs).
//
// Example:
//
//	chimera-sim -scheme chimera -model gpt2 -d 32 -w 64 -b 1 -bhat 2048
//	chimera-sim -scheme chimera -model bert48 -d 4 -w 8 -b 8 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"chimera/internal/schedule"
	"chimera/internal/serve"
	"chimera/internal/sim"
)

func main() {
	scheme := flag.String("scheme", "chimera", "pipeline scheme: chimera|gpipe|dapple|gems|pipedream|pipedream-2bw|1f1b")
	modelName := flag.String("model", "bert48", "model: bert48|bert48-512|gpt2|gpt2-32")
	d := flag.Int("d", 4, "pipeline stages D")
	w := flag.Int("w", 8, "data-parallel width W")
	b := flag.Int("b", 8, "micro-batch size B")
	bhat := flag.Int("bhat", 512, "mini-batch size B̂ (N = B̂/(W·B))")
	f := flag.Int("f", 1, "chimera pipelines per direction")
	concat := flag.String("concat", "direct", "chimera N>D method: direct|doubling|halving")
	platform := flag.String("platform", "pizdaint", "platform: pizdaint|v100")
	recompute := flag.Bool("recompute", false, "force activation recomputation")
	auto := flag.Bool("auto", true, "enable recomputation automatically when memory requires it")
	speed := flag.String("speed", "", "per-worker speed factors, comma-separated (e.g. 1,1,1.5,1 — one per stage; 1.5 = 1.5x slower straggler)")
	scheduler := flag.String("scheduler", "fixed", "placement policy: "+strings.Join(schedule.Schedulers(), "|")+" (list policies re-shape the pipeline around -speed stragglers)")
	jsonOut := flag.Bool("json", false, "emit the /v1/simulate wire format instead of the report")
	flag.Parse()

	m, err := serve.ResolveModel(*modelName)
	check(err)
	if *bhat%(*w**b) != 0 {
		check(fmt.Errorf("B̂=%d not divisible by W·B=%d", *bhat, *w**b))
	}
	n := *bhat / (*w * *b)
	factors, err := sim.DecodeSpeedFactors(*speed)
	check(err)
	mode, err := serve.ResolveConcat(*concat)
	check(err)
	s, err := schedule.Build(schedule.Spec{
		Scheme: *scheme, Scheduler: *scheduler, D: *d, N: n, F: *f,
		Concat: mode, SpeedFactors: factors,
	})
	check(err)

	dev, net, err := serve.ResolvePlatform(*platform)
	check(err)
	cfg := sim.Config{Model: m, Schedule: s, MicroBatch: *b, W: *w, Recompute: *recompute,
		SpeedFactors: factors, Device: dev, Network: net}
	var res *sim.Result
	usedRecompute := *recompute
	if *auto && !*recompute {
		res, usedRecompute, err = sim.AutoRun(cfg)
	} else {
		res, err = sim.Run(cfg)
	}
	check(err)

	if *jsonOut {
		raw, err := json.MarshalIndent(serve.SimulateResponse{Result: res, Recompute: usedRecompute}, "", "  ")
		check(err)
		fmt.Println(string(raw))
		if res.OOM {
			os.Exit(2)
		}
		return
	}
	fmt.Printf("%s %s: D=%d W=%d B=%d N=%d (B̂=%d) recompute=%v\n",
		*scheme, m.Name, *d, *w, *b, n, res.MiniBatch, usedRecompute)
	fmt.Printf("iteration time : %.4f s\n", res.IterTime)
	fmt.Printf("throughput     : %.1f sequences/s\n", res.Throughput)
	fmt.Printf("bubble ratio   : %.3f\n", res.BubbleRatio)
	fmt.Printf("sync overhead  : %.4f s (unoverlapped)\n", res.SyncTime)
	fmt.Printf("per-worker peak memory (GiB):\n")
	for wk, mem := range res.PeakMemBytes {
		marker := ""
		if mem > cfg.Device.MemBytes {
			marker = "  << OOM"
		}
		fmt.Printf("  P%-3d %.2f%s\n", wk, float64(mem)/(1<<30), marker)
	}
	if res.OOM {
		fmt.Println("configuration exceeds device memory")
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimera-sim:", err)
		os.Exit(1)
	}
}
