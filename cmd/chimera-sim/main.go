// chimera-sim simulates one training iteration of a pipeline scheme on a
// calibrated cluster and prints throughput, bubble ratio and per-worker
// memory. It is a client of /v1/simulate: its flags resolve through
// serve.SimulateRequest.Spec and run on an engine as that endpoint does, so
// it refuses what the service refuses, and -json prints the endpoint's reply.
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

	"chimera/internal/engine"
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

	n := 1 // N = B̂/(W·B); a -w or -b below 1 is the codec's to refuse
	if wb := *w * *b; wb > 0 {
		if *bhat%wb != 0 {
			check(fmt.Errorf("B̂=%d not divisible by W·B=%d", *bhat, wb))
		}
		n = *bhat / wb
	}
	factors, err := sim.DecodeSpeedFactors(*speed)
	check(err)
	ref := serve.ScheduleRef{Scheme: *scheme, D: *d, N: n, Scheduler: *scheduler}
	// A non-default -f or -concat is sent too: the codec refuses it off chimera.
	if *scheme == "chimera" || *f != 1 || *concat != "direct" {
		ref.F, ref.Concat = *f, *concat
	}
	spec, err := serve.SimulateRequest{
		Model: serve.ModelRef{Preset: *modelName}, Schedule: ref,
		MicroBatch: *b, W: *w, Recompute: *recompute, AutoRecompute: *auto && !*recompute,
		SpeedFactors: factors, Platform: serve.PlatformRef{Preset: *platform},
	}.Spec()
	check(err)
	out := engine.Default().Evaluate(spec)
	check(out.Err)
	res := out.Result

	if *jsonOut {
		raw, err := json.MarshalIndent(serve.SimulateResponse{Result: res, Recompute: out.Recompute}, "", "  ")
		check(err)
		fmt.Println(string(raw))
		if res.OOM {
			os.Exit(2)
		}
		return
	}
	fmt.Printf("%s %s: D=%d W=%d B=%d N=%d (B̂=%d) recompute=%v\n",
		*scheme, spec.Model.Name, *d, *w, *b, n, res.MiniBatch, out.Recompute)
	fmt.Printf("iteration time : %.4f s\n", res.IterTime)
	fmt.Printf("throughput     : %.1f sequences/s\n", res.Throughput)
	fmt.Printf("bubble ratio   : %.3f\n", res.BubbleRatio)
	fmt.Printf("sync overhead  : %.4f s (unoverlapped)\n", res.SyncTime)
	fmt.Printf("per-worker peak memory (GiB):\n")
	for wk, mem := range res.PeakMemBytes {
		marker := ""
		if mem > spec.Device.MemBytes {
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
