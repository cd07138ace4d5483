package experiments

import (
	"fmt"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// schemeList is Table 2 order with chimera last (the paper's bar order).
var schemeList = []string{"pipedream", "pipedream-2bw", "gpipe", "gems", "dapple", "chimera"}

// bestForScheme finds the best configuration for one scheme at (P, B̂),
// using the planner-style sweep; chimera additionally considers
// concatenation modes when N > D.
func bestForScheme(m model.Config, plat platform, p, bhat int, scheme string, ds, bs []int) *sweepResult {
	if scheme == "pipedream" {
		return pipeDreamBest(m, plat, p, ds, bs)
	}
	if scheme != "chimera" {
		return bestPoint(m, plat, p, bhat, scheme, ds, bs)
	}
	var rcs []runConfig
	for _, d := range ds {
		for _, b := range bs {
			for _, mode := range []schedule.ConcatMode{schedule.Direct, schedule.ForwardDoubling, schedule.BackwardHalving} {
				rcs = append(rcs, runConfig{scheme: "chimera", d: d, b: b, concat: mode})
			}
		}
	}
	grid := buildGrid(m, plat, p, func(_, _ int) int { return bhat }, rcs)
	return sweepBest(p, grid)
}

// Figure1 reproduces the headline chart: GPT-2 on 2,048 workers at
// B̂=2,048 — bubble ratio, peak memory and best throughput per scheme, with
// Chimera's speedups.
func Figure1() (*Report, error) {
	r := newReport("figure-1", "GPT-2 on 2,048 GPU nodes, B̂=2,048 (headline comparison)")
	m, plat := model.GPT2(), pizDaint()
	ds := []int{8, 16, 32}
	bs := powersOfTwo(2)
	var chimera *sweepResult
	results := map[string]*sweepResult{}
	for _, scheme := range schemeList {
		best := bestForScheme(m, plat, 2048, 2048, scheme, ds, bs)
		results[scheme] = best
		if scheme == "chimera" {
			chimera = best
		}
		if best == nil {
			r.addf("%-14s infeasible", scheme)
			continue
		}
		var peak int64
		for _, mm := range best.res.PeakMemBytes {
			if mm > peak {
				peak = mm
			}
		}
		r.addf("%-14s %s  peak-mem=%s", scheme, fmtPoint(best), gib(peak))
		r.Metrics["throughput:"+scheme] = best.res.Throughput
		r.Metrics["bubble:"+scheme] = best.res.BubbleRatio
	}
	if chimera != nil {
		for _, scheme := range schemeList {
			if scheme == "chimera" || results[scheme] == nil {
				continue
			}
			r.addf("chimera speedup over %-14s: %s (paper: pipedream 2.01x, 2bw 1.16x, gpipe 1.42x, gems 2.34x, dapple 1.38x)",
				scheme, speedup(results[scheme].res.Throughput, chimera.res.Throughput))
			r.Metrics["speedup:"+scheme] = chimera.res.Throughput / results[scheme].res.Throughput
		}
	}
	return r, nil
}

// Figure12 reproduces the gradient-synchronization strategy comparison:
// eager-sync vs eager-sync-opt for Bert-48, D=4, B=8, P ∈ {16, 32, 64}
// with B̂ scaling 256→1,024 (plus post-hoc as the Fig. 4a baseline).
func Figure12() (*Report, error) {
	r := newReport("figure-12", "Gradient synchronization strategies (Bert-48, D=4, B=8)")
	m, plat := model.BERT48(), pizDaint()
	for _, p := range []int{16, 32, 64} {
		bhat := 256 * p / 16
		w := p / 4
		n := bhat / (w * 8)
		// The three strategies share one schedule (cached by key) and are
		// independent evaluations, so they run as one engine sweep.
		spec := engine.Spec{
			Sched: engine.ChimeraKey(4, n, 0, schedule.Direct),
			Model: m, MicroBatch: 8, W: w,
			Device: plat.dev, Network: plat.net,
		}
		specs := make([]engine.Spec, 3)
		for i, strategy := range []sim.SyncStrategy{sim.SyncEagerOpt, sim.SyncEager, sim.SyncPostHoc} {
			specs[i] = spec
			specs[i].Sync = strategy
		}
		outs := eng.Sweep(specs)
		for _, o := range outs {
			if o.Err != nil {
				return nil, o.Err
			}
		}
		opt, eager, post := outs[0].Result, outs[1].Result, outs[2].Result
		r.addf("%d nodes (B̂=%d): eager-sync-opt=%.1f seq/s  eager-sync=%.1f (opt %.2fx)  post-hoc=%.1f (opt %.2fx)",
			p, bhat, opt.Throughput, eager.Throughput, opt.Throughput/eager.Throughput,
			post.Throughput, opt.Throughput/post.Throughput)
		r.Metrics[itoaKey("opt-over-eager", p)] = opt.Throughput / eager.Throughput
	}
	r.addf("paper: eager-sync-opt up to 1.09x over eager-sync on 64 nodes")
	return r, nil
}

func itoaKey(prefix string, v int) string { return fmt.Sprintf("%s:%d", prefix, v) }

// weakScaling runs one weak-scaling panel: per node count, the best
// configuration per scheme.
func weakScaling(r *Report, m model.Config, plat platform, nodes []int, bhatAt func(int) int, ds, bs []int) {
	for _, p := range nodes {
		bhat := bhatAt(p)
		r.addf("%d nodes, B̂=%d:", p, bhat)
		var chim, bestBase *sweepResult
		var bestBaseName string
		for _, scheme := range schemeList {
			best := bestForScheme(m, plat, p, bhat, scheme, ds, bs)
			r.addf("  %-14s %s", scheme, fmtPoint(best))
			if best == nil {
				continue
			}
			r.Metrics[fmt.Sprintf("%s:%d", scheme, p)] = best.res.Throughput
			if scheme == "chimera" {
				chim = best
			} else if bestBase == nil || best.res.Throughput > bestBase.res.Throughput {
				bestBase, bestBaseName = best, scheme
			}
		}
		if chim != nil && bestBase != nil {
			r.addf("  chimera vs best baseline (%s): %s", bestBaseName,
				speedup(bestBase.res.Throughput, chim.res.Throughput))
		}
	}
}

// Figure14 reproduces weak scaling for Bert-48 on Piz Daint: P 16→64,
// B̂ 256→1,024.
func Figure14() (*Report, error) {
	r := newReport("figure-14", "Weak scaling, Bert-48 on Piz Daint")
	weakScaling(r, model.BERT48(), pizDaint(), []int{16, 32, 64},
		func(p int) int { return 16 * p }, []int{2, 4, 8, 16}, powersOfTwo(32))
	return r, nil
}

// Figure15 reproduces weak scaling for GPT-2 on Piz Daint: P 512→2,048,
// B̂ 512→2,048, and the 91.4% parallel-efficiency observation for Chimera.
func Figure15() (*Report, error) {
	r := newReport("figure-15", "Weak scaling, GPT-2 on Piz Daint")
	m, plat := model.GPT2(), pizDaint()
	ds := []int{8, 16, 32}
	bs := powersOfTwo(2)
	weakScaling(r, m, plat, []int{512, 1024, 2048}, func(p int) int { return p }, ds, bs)
	base := r.Metrics["chimera:512"]
	top := r.Metrics["chimera:2048"]
	if base > 0 {
		eff := top / (4 * base)
		r.addf("chimera parallel efficiency 512→2048 nodes: %.1f%% (paper: 91.4%%)", eff*100)
		r.Metrics["parallel-efficiency"] = eff
	}
	return r, nil
}

// Figure16 reproduces weak scaling for Bert-48 (sequence length 512) on the
// 32×V100 cluster: P 16→32, B̂ 128→256.
func Figure16() (*Report, error) {
	r := newReport("figure-16", "Weak scaling, Bert-48 (seq 512) on 32 V100 GPUs")
	weakScaling(r, model.BERT48Seq512(), v100Cluster(), []int{16, 32},
		func(p int) int { return 8 * p }, []int{2, 4, 8}, powersOfTwo(16))
	return r, nil
}
