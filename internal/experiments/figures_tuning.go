package experiments

import (
	"fmt"

	"chimera/internal/model"
)

// Figure10 reproduces the baseline tuning sweep for Bert-48 on 32 workers
// (B̂=512): throughput across (W, D, B) for each baseline, with the best
// point starred — §4.2.1's observation that baselines face a large tuning
// space.
func Figure10() (*Report, error) {
	r := newReport("figure-10", "Performance tuning of the baselines, Bert-48 on 32 nodes (B̂=512)")
	m, plat := model.BERT48(), pizDaint()
	ds := []int{2, 4, 8, 16}
	bs := powersOfTwo(64)
	for _, scheme := range []string{"gpipe", "dapple", "gems", "pipedream-2bw"} {
		r.addf("%s:", scheme)
		best := bestPoint(m, plat, 32, 512, scheme, ds, bs)
		for _, d := range ds {
			for _, b := range bs {
				res, rec := evalPoint(m, plat, 32, 512, runConfig{scheme: scheme, d: d, b: b})
				if res == nil {
					continue
				}
				star := " "
				if best != nil && d == best.d && b == best.b {
					star = "*"
				}
				r.addf(" %s W=%-3d D=%-3d B=%-3d%-3s  %7.1f seq/s", star, 32/d, d, b, recompStr(rec), res.Throughput)
			}
		}
		if best != nil {
			r.Metrics["best:"+scheme] = best.res.Throughput
		}
	}
	// PipeDream's B̂ is memory limited.
	pd := pipeDreamBest(m, plat, 32, []int{2, 4, 8, 16}, powersOfTwo(16))
	r.addf("pipedream (memory-limited B̂): %s", fmtPoint(pd))
	if pd != nil {
		r.Metrics["best:pipedream"] = pd.res.Throughput
		r.Metrics["pipedream:bhat"] = float64(pd.res.MiniBatch)
	}
	return r, nil
}

// Figure11 reproduces the GPT-2 baseline tuning on 512 workers (B̂=512).
func Figure11() (*Report, error) {
	r := newReport("figure-11", "Performance tuning of the baselines, GPT-2 on 512 nodes (B̂=512)")
	m, plat := model.GPT2(), pizDaint()
	ds := []int{4, 8, 16, 32}
	bs := powersOfTwo(8)
	for _, scheme := range []string{"gpipe", "dapple", "gems", "pipedream-2bw"} {
		best := bestPoint(m, plat, 512, 512, scheme, ds, bs)
		r.addf("%-14s best: %s", scheme, fmtPoint(best))
		if best != nil {
			r.Metrics["best:"+scheme] = best.res.Throughput
		}
		for _, d := range ds {
			for _, b := range bs {
				res, rec := evalPoint(m, plat, 512, 512, runConfig{scheme: scheme, d: d, b: b})
				if res == nil {
					continue
				}
				r.addf("   D=%-3d B=%-3d%-3s %7.1f seq/s", d, b, recompStr(rec), res.Throughput)
			}
		}
	}
	pd := pipeDreamBest(m, plat, 512, ds, powersOfTwo(4))
	r.addf("pipedream (memory-limited B̂): %s", fmtPoint(pd))
	if pd != nil {
		r.Metrics["best:pipedream"] = pd.res.Throughput
	}
	return r, nil
}

// Figure13 compares the §3.4 performance model's predictions against
// simulated ("practical") throughput for Chimera configurations — the
// paper reports <10% error and correct (W, D) ranking for Bert-48.
func Figure13() (*Report, error) {
	r := newReport("figure-13", "Performance model vs practical throughput (Chimera)")
	type panel struct {
		m       model.Config
		p, bhat int
		configs []struct{ w, d, b int }
	}
	panels := []panel{
		{model.BERT48(), 32, 256, []struct{ w, d, b int }{
			{2, 16, 16}, {4, 8, 16}, {8, 4, 8}, {16, 2, 4},
		}},
		{model.GPT2(), 512, 512, []struct{ w, d, b int }{
			{8, 64, 1}, {16, 32, 1}, {32, 16, 1}, {64, 8, 1},
		}},
	}
	for _, pn := range panels {
		r.addf("%s on %d workers, B̂=%d:", pn.m.Name, pn.p, pn.bhat)
		var bestSim, bestPred, pickSim float64
		var bestSimCfg, bestPredCfg string
		for _, c := range pn.configs {
			if pn.m.Layers%c.d != 0 || pn.bhat%(c.w*c.b) != 0 {
				continue
			}
			spec := directChimera(pn.m, c.d, pn.bhat/(c.w*c.b), c.b, c.w)
			spec.AutoRecompute = true
			// A point that does not build, or fits neither plainly nor with
			// recomputation, is not plotted.
			pt, err := versusModel(spec)
			if err != nil || pt.res.OOM {
				continue
			}
			res, pred := pt.res, pt.pred
			errPct := 100 * pt.modelErr
			name := fmt.Sprintf("W=%d,D=%d,B=%d%s", c.w, c.d, c.b, recompStr(pt.recompute))
			r.addf("  %-22s practical=%7.1f seq/s  model=%7.1f seq/s  error=%.1f%%",
				name, res.Throughput, pred.Throughput, errPct)
			r.Metrics["error%:"+name] = errPct
			if res.Throughput > bestSim {
				bestSim, bestSimCfg = res.Throughput, name
			}
			if pred.Throughput > bestPred {
				bestPred, bestPredCfg, pickSim = pred.Throughput, name, res.Throughput
			}
		}
		r.addf("  model selects %s; practical best %s (match=%v)", bestPredCfg, bestSimCfg, bestPredCfg == bestSimCfg)
		// The model's pick, as the practical throughput it achieves, beside
		// the practical best: §4.2.2's ranking claim holds when they agree.
		r.Metrics["pick:"+pn.m.Name] = pickSim
		r.Metrics["best:"+pn.m.Name] = bestSim
	}
	return r, nil
}
