package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// benchmarkFile is where the bounds live: BENCHMARK.json at the checkout's
// root, one directory above the benchmark's own.
const benchmarkFile = "../BENCHMARK.json"

// maxRoundSpread is the widest spread of per-round throughput on the reference
// host, (q3−q1)/median, a run may show before the self-check calls the run
// itself unsteady. The sandbox's runs show 0.04–0.14.
const maxRoundSpread = 0.15

type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadBenchmarkSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(raw, &spec)
}

// checkPair is one workload × metric comparison of two back-to-back runs.
type checkPair struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is how much worse the worse run is, as a share of the better.
	Worse float64 `json:"worse_share"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

// checkReport is one -check invocation.
type checkReport struct {
	When        string             `json:"when"`
	Env         map[string]string  `json:"env"`
	Seed        int64              `json:"seed"`
	Pairs       []checkPair        `json:"pairs"`
	RoundSpread map[string]float64 `json:"round_spread_share"`
	Failures    []string           `json:"failures"`
}

// environment records what the numbers were measured on.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["modified"] = s.Value
			}
		}
	}
	return env
}

// disagreement is how far apart two readings of one metric are, as a share
// of the better one (for a lower-is-better metric, the smaller).
func disagreement(a, b float64) float64 {
	lo, hi := math.Min(a, b), math.Max(a, b)
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi/lo - 1
}

// runCheck runs every workload twice back to back and reports every
// end-to-end pair that disagrees by more than its bound, and every run whose
// rounds spread wider than maxRoundSpread.
func runCheck(seed int64, measured int) (checkReport, error) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return checkReport{}, err
	}
	rep := checkReport{When: time.Now().UTC().Format(time.RFC3339), Env: environment(), Seed: seed, RoundSpread: make(map[string]float64)}
	for _, name := range workloadNames {
		var runs [2]runResult
		for i := range runs {
			w, err := newWorkload(name, seed)
			if err != nil {
				return rep, err
			}
			if runs[i], err = runWorkload(w, seed, measured); err != nil {
				return rep, err
			}
			spread := spreadShare(roundThroughputs(runs[i].Rounds))
			rep.RoundSpread[fmt.Sprintf("%s/%d", name, i+1)] = spread
			if spread > maxRoundSpread {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s run %d: bench.round_spread_share %.3f exceeds %.2f", name, i+1, spread, maxRoundSpread))
			}
			if runs[i].Failed > 0 {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s run %d: %d of %d ops incorrect", name, i+1, runs[i].Failed, runs[i].Attempted))
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			p := checkPair{Workload: name, Metric: m.Name, First: a, Second: b, Worse: disagreement(a, b), Bound: m.Bound}
			p.OK = p.Worse <= p.Bound
			if !p.OK {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s %s: %.6g vs %.6g disagree by %.3f, bound %.2f", name, m.Name, a, b, p.Worse, m.Bound))
			}
			rep.Pairs = append(rep.Pairs, p)
			logf("check %-12s %-18s %12.6g %12.6g  apart %.4f  bound %.2f  ok=%v", name, m.Name, a, b, p.Worse, m.Bound, p.OK)
		}
	}
	return rep, nil
}

// baseline is BASELINE.json: the self-check's reports, one per invocation.
type baseline struct {
	Invocations []checkReport `json:"invocations"`
}

// appendBaseline adds rep to the baseline file at path, creating it if need
// be.
func appendBaseline(path string, rep checkReport) error {
	var b baseline
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	b.Invocations = append(b.Invocations, rep)
	raw, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
