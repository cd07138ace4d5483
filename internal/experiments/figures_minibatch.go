package experiments

import (
	"fmt"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/schedule"
)

// chimeraVariant simulates one Chimera concatenation variant at fixed
// (D, B) across a mini-batch sweep. The B̂ points are independent, so they
// run concurrently on the engine; reporting walks them in input order.
func chimeraVariant(r *Report, m model.Config, plat platform, p, d, b int, mode schedule.ConcatMode, bhats []int) {
	name := "chimera(" + mode.String() + ")"
	grid := make([]gridPoint, 0, len(bhats))
	for _, bhat := range bhats {
		rc := runConfig{scheme: "chimera", d: d, b: b, concat: mode}
		spec, ok := pointSpec(m, plat, p, bhat, rc)
		grid = append(grid, gridPoint{rc: rc, bhat: bhat, spec: spec, ok: ok})
	}
	var specs []engine.Spec
	idx := make([]int, 0, len(grid))
	for i, g := range grid {
		if g.ok {
			specs = append(specs, g.spec)
			idx = append(idx, i)
		}
	}
	outs := eng.Sweep(specs)
	results := make([]engine.Outcome, len(grid))
	for j, i := range idx {
		results[i] = outs[j]
	}
	for i, g := range grid {
		res, rec := outcomePoint(results[i])
		if !g.ok || res == nil {
			r.addf("  %-28s B̂=%-5d infeasible", name, g.bhat)
			continue
		}
		r.addf("  %-28s B̂=%-5d B=%-3d%-3s %7.1f seq/s", name, g.bhat, b, recompStr(rec), res.Throughput)
		r.Metrics[fmt.Sprintf("%s:%d", name, g.bhat)] = res.Throughput
	}
}

// Figure17 reproduces the large-mini-batch scaling for Bert-48 on 32
// workers: baselines at their tuned configurations and the three Chimera
// variants (direct is expected to win — the intermediate bubbles absorb
// p2p; doubling pays recomputation, halving pays sub-max B).
func Figure17() (*Report, error) {
	r := newReport("figure-17", "Scaling to large mini-batches, Bert-48 on 32 nodes")
	m, plat := model.BERT48(), pizDaint()
	bhats := []int{512, 1024, 2048, 4096}
	r.addf("chimera variants (D=4):")
	chimeraVariant(r, m, plat, 32, 4, 8, schedule.Direct, bhats)
	chimeraVariant(r, m, plat, 32, 4, 8, schedule.ForwardDoubling, bhats)
	chimeraVariant(r, m, plat, 32, 4, 4, schedule.BackwardHalving, bhats)
	r.addf("baselines (best over D ∈ {2,4,8,16}, B powers of two):")
	for _, scheme := range []string{"gpipe", "dapple", "gems", "pipedream-2bw"} {
		for _, bhat := range bhats {
			best := bestPoint(m, plat, 32, bhat, scheme, []int{2, 4, 8, 16}, powersOfTwo(32))
			r.addf("  %-28s B̂=%-5d %s", scheme, bhat, fmtPoint(best))
			if best != nil {
				r.Metrics[fmt.Sprintf("%s:%d", scheme, bhat)] = best.res.Throughput
			}
		}
	}
	pd := pipeDreamBest(m, plat, 32, []int{4, 8}, powersOfTwo(16))
	r.addf("  pipedream (B̂ memory-limited)   %s", fmtPoint(pd))
	return r, nil
}

// Figure18 reproduces the large-mini-batch scaling for GPT-2 on 512
// workers, where recomputation is unavoidable and forward doubling is
// expected to beat direct concatenation.
func Figure18() (*Report, error) {
	r := newReport("figure-18", "Scaling to large mini-batches, GPT-2 on 512 nodes")
	m, plat := model.GPT2(), pizDaint()
	bhats := []int{512, 1024, 1536, 2048}
	r.addf("chimera variants (D=8, B=1):")
	chimeraVariant(r, m, plat, 512, 8, 1, schedule.Direct, bhats)
	chimeraVariant(r, m, plat, 512, 8, 1, schedule.ForwardDoubling, bhats)
	r.addf("baselines (best over D ∈ {8,16}, B=1):")
	for _, scheme := range []string{"gpipe", "dapple", "gems", "pipedream-2bw"} {
		for _, bhat := range bhats {
			best := bestPoint(m, plat, 512, bhat, scheme, []int{8, 16}, []int{1, 2})
			r.addf("  %-28s B̂=%-5d %s", scheme, bhat, fmtPoint(best))
			if best != nil {
				r.Metrics[fmt.Sprintf("%s:%d", scheme, bhat)] = best.res.Throughput
			}
		}
	}
	return r, nil
}

// Figure19 reproduces the f-sweep: Chimera with 1–16 pipelines for the
// 32-layer GPT-2 with B̂=64 on 64 workers, at (W=2, D=32) and (W=4, D=16);
// "1 pipe" is 1F1B with flushes.
func Figure19() (*Report, error) {
	r := newReport("figure-19", "Chimera with more than two pipelines (GPT-2 32L, B̂=64, 64 nodes)")
	for _, cfg := range []struct{ w, d int }{{2, 32}, {4, 16}} {
		n := 64 / cfg.w // B=1
		r.addf("W=%d, D=%d (N=%d, B=1):", cfg.w, cfg.d, n)
		// Single pipeline baseline: 1F1B with flush.
		spec := directChimera(model.GPT2Small32(), cfg.d, n, 1, cfg.w)
		spec.Sched = engine.ScheduleKey{Scheme: "1f1b", D: cfg.d, N: n}
		if o := eng.Evaluate(spec); o.Err == nil && !o.Result.OOM {
			r.addf("  1 pipe  (1F1B)   %7.1f seq/s  bubble=%.3f", o.Result.Throughput, o.Result.BubbleRatio)
			r.Metrics[fmt.Sprintf("d%d:pipes=1", cfg.d)] = o.Result.Throughput
		}
		for f := 1; 2*f <= cfg.d; f *= 2 {
			if (cfg.d/2)%f != 0 {
				continue
			}
			spec.Sched = engine.ChimeraKey(cfg.d, n, f, schedule.Direct)
			o := eng.Evaluate(spec)
			if o.Err != nil || o.Result.OOM {
				r.addf("  %2d pipes: infeasible", 2*f)
				continue
			}
			res := o.Result
			r.addf("  %2d pipes         %7.1f seq/s  bubble=%.3f", 2*f, res.Throughput, res.BubbleRatio)
			r.Metrics[fmt.Sprintf("d%d:pipes=%d", cfg.d, 2*f)] = res.Throughput
		}
	}
	r.addf("paper: 4 pipes best at D=32; 2 pipes best at D=16 (allreduce overhead vs bubbles)")
	return r, nil
}
