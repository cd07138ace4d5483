// Command bench is the repository's benchmark: four closed-loop workloads
// over the planner stack (schedule → sim → engine → perfmodel → fleet →
// serve → router → controller), seven end-to-end metrics per workload, and a
// separate traced pass that produces the per-layer table. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf("bench: "+format, args...)
	os.Exit(1)
}

var workloadNames = []string{"plan_cold", "plan_warm", "serve_zipf", "fleet_storm"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "plan_cold":
		return newPlanWorkload(true, seed)
	case "plan_warm":
		return newPlanWorkload(false, seed)
	case "serve_zipf":
		return newZipfWorkload(seed)
	case "fleet_storm":
		return newStormWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: plan_cold | plan_warm | serve_zipf | fleet_storm")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "measuring budget; sets the number of measured rounds")
		trace    = flag.Int("trace", 0, "1 = traced pass: spans around layer calls, per-layer metrics")
		outDir   = flag.String("out", "out", "directory for trace and result files")
		update   = flag.Bool("update-golden", false, "recompute the committed goldens through the reference paths and exit")
		check    = flag.Bool("check", false, "run every workload twice and fail if any end-to-end pair disagrees beyond its bound")
		baseFile = flag.String("baseline", "", "with -check: append the report to this file (BASELINE.json)")
		open     = flag.Bool("open-loop", false, "open-loop diagnostic pass on serve_zipf at the fixed rate")
	)
	flag.Parse()

	// One thread runs Go code: the caller, the daemons' handlers and the
	// collector take turns on it, so an op's time is the work done for it and
	// not the wait for the sandbox's host to schedule a second thread. The
	// second core is left to the kernel's side of loopback and to whatever
	// started the benchmark; without it they would take their time out of the
	// measured thread, and the numbers would not be comparable.
	if runtime.NumCPU() < 2 {
		fatalf("needs at least 2 CPUs, found %d: refusing to measure", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(1)

	switch {
	case *update:
		if err := updateGoldens(); err != nil {
			fatalf("update-golden: %v", err)
		}
	case *check:
		rep, err := runCheck(*seed, measuredRounds(*seconds))
		if err != nil {
			fatalf("check: %v", err)
		}
		if *baseFile != "" {
			if err := appendBaseline(*baseFile, rep); err != nil {
				fatalf("check: %v", err)
			}
		}
		raw, _ := json.MarshalIndent(rep, "", " ")
		fmt.Println(string(raw))
		if len(rep.Failures) > 0 {
			for _, f := range rep.Failures {
				logf("check FAILED: %s", f)
			}
			os.Exit(1)
		}
		logf("check passed: %d pairs within their bounds", len(rep.Pairs))
	case *open:
		if err := runOpenLoop(*seed); err != nil {
			fatalf("open-loop: %v", err)
		}
	default:
		w, err := newWorkload(*name, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		var res runResult
		if *trace != 0 {
			res, err = runTraced(w, *seed, *outDir)
		} else {
			res, err = runWorkload(w, *seed, measuredRounds(*seconds))
		}
		if err != nil {
			fatalf("%v", err)
		}
		if err := writeJSONFile(filepath.Join(*outDir, fmt.Sprintf("result-%s-trace%d.json", w.name(), *trace)), res); err != nil {
			fatalf("%v", err)
		}
		emit(res)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

// measuredRounds turns the measuring budget into a round count: a round is
// sized, by a fixed op count, for about a second and a half of timed work.
// Never fewer than eight, which is how many repeats of an op its quiet time
// is taken over: a smaller budget cuts rounds, not the work a round measures.
func measuredRounds(seconds int) int {
	return max(seconds*2/3, 8)
}

// emit prints the driver's result line: the last line of standard output.
func emit(res runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for k, m := range res.Metrics {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(raw))
}

// runOpenLoop is the -open-loop pass: a serve_zipf cluster primed exactly as
// a round primes it, then the schedule's timed part sent at the fixed rate.
func runOpenLoop(seed int64) error {
	w, err := newZipfWorkload(seed)
	if err != nil {
		return err
	}
	r, err := w.setup(nil)
	if err != nil {
		return err
	}
	defer r.close()
	w.sched = w.sched[zipfPrimeOps:]
	res, err := openLoop(r.(*zipfRound).c, w, zipfTimedOps)
	if err != nil {
		return err
	}
	raw, _ := json.Marshal(map[string]any{
		"workload": "serve_zipf", "seed": seed, "rate_per_s": zipfOpenRate, "requests": zipfTimedOps,
		"bench.loadgen_late_share": res.lateShare, "bench.open_loop_p50_ms": res.p50ms, "bench.open_loop_p95_ms": res.p95ms,
	})
	fmt.Println(string(raw))
	return nil
}
