package experiments

import (
	"errors"
	"fmt"
	"slices"

	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// AblationAllreduce compares Rabenseifner against ring allreduce cost in
// end-to-end iteration time — the §3.4 design choice.
func AblationAllreduce() (*Report, error) {
	r := newReport("ablation-allreduce", "Allreduce algorithm choice (Rabenseifner vs ring)")
	for _, alg := range []sim.AllReduceAlg{sim.ARRabenseifner, sim.ARRing} {
		for _, w := range []int{8, 64, 256} {
			spec := directChimera(model.GPT2(), 8, 8, 1, w)
			spec.Allreduce, spec.Recompute = alg, true
			o := eng.Evaluate(spec)
			if o.Err != nil {
				return nil, o.Err
			}
			res := o.Result
			name := "rabenseifner"
			if alg == sim.ARRing {
				name = "ring"
			}
			r.addf("%-13s W=%-4d iter=%.3fs sync=%.3fs", name, w, res.IterTime, res.SyncTime)
			r.Metrics[fmt.Sprintf("%s:%d", name, w)] = res.IterTime
		}
	}
	return r, nil
}

// AblationGreedyB validates Chimera's greedy max-B policy: the largest
// fitting micro-batch should be at least as good as any smaller power of
// two at fixed B̂ (the reduced tuning space of §3.4).
func AblationGreedyB() (*Report, error) {
	r := newReport("ablation-greedy-b", "Greedy max-B vs swept micro-batch sizes (Bert-48, 32 nodes, B̂=512)")
	m, plat := model.BERT48(), pizDaint()
	var best *sweepResult
	var bestB int
	for _, b := range powersOfTwo(32) {
		res, rec := evalPoint(m, plat, 32, 512, runConfig{scheme: "chimera", d: 4, b: b})
		if res == nil {
			r.addf("B=%-3d infeasible", b)
			continue
		}
		r.addf("B=%-3d%-3s %7.1f seq/s", b, recompStr(rec), res.Throughput)
		r.Metrics[fmt.Sprintf("b=%d", b)] = res.Throughput
		if best == nil || res.Throughput > best.res.Throughput {
			best = &sweepResult{res: res, b: b}
			bestB = b
		}
	}
	// The greedy pick: largest feasible without recompute. This is the greedy
	// rule under test, so it reads the memory model directly rather than
	// through an evaluation.
	greedy := 0
	for _, b := range powersOfTwo(32) {
		sch, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 512 / (8 * b), Concat: schedule.Direct})
		if err != nil {
			continue
		}
		plain, _, err := sim.FitsMemory(sim.Config{Model: m, Schedule: sch, MicroBatch: b, W: 8,
			Device: plat.dev, Network: plat.net})
		if err == nil && plain {
			greedy = b
		}
	}
	r.addf("greedy max-B picks B=%d; sweep optimum B=%d", greedy, bestB)
	r.Metrics["greedy"] = float64(greedy)
	r.Metrics["optimum"] = float64(bestB)
	return r, nil
}

// AblationRecompute quantifies the ≈1/3 backward overhead of activation
// recomputation against its memory savings.
func AblationRecompute() (*Report, error) {
	r := newReport("ablation-recompute", "Activation recomputation cost/benefit (GPT-2, D=32)")
	for _, rec := range []bool{false, true} {
		spec := directChimera(model.GPT2(), 32, 32, 1, 2)
		spec.Recompute = rec
		o := eng.Evaluate(spec)
		if o.Err != nil {
			return nil, o.Err
		}
		res := o.Result
		peak := slices.Max(res.PeakMemBytes)
		r.addf("recompute=%-5v iter=%.3fs peak=%.2f GiB oom=%v", rec, res.IterTime, float64(peak)/(1<<30), res.OOM)
		r.Metrics[fmt.Sprintf("iter:recompute=%v", rec)] = res.IterTime
	}
	return r, nil
}

// AblationInterference sweeps the eager-sync progression-overhead
// parameter η, showing when eager-sync-opt's advantage appears.
func AblationInterference() (*Report, error) {
	r := newReport("ablation-interference", "Eager-sync progression overhead η sweep (Bert-48, D=4)")
	for _, eta := range []float64{0.05, 0.15, 0.3} {
		spec := directChimera(model.BERT48(), 4, 8, 8, 16)
		spec.Sync, spec.Interference = sim.SyncEagerOpt, eta
		o := eng.Evaluate(spec)
		spec.Sync = sim.SyncEager
		e := eng.Evaluate(spec)
		if o.Err != nil || e.Err != nil {
			return nil, errors.Join(o.Err, e.Err)
		}
		opt, eager := o.Result, e.Result
		r.addf("η=%.2f: eager-opt/eager speedup %.3fx", eta, opt.Throughput/eager.Throughput)
		r.Metrics[fmt.Sprintf("eta=%.2f", eta)] = opt.Throughput / eager.Throughput
	}
	return r, nil
}

// ModelAccuracy reports the §4.2.2 performance-model error across a
// configuration grid.
func ModelAccuracy() (*Report, error) {
	r := newReport("model-accuracy", "Performance model error (paper: within 10%)")
	var worst float64
	for _, c := range []struct{ w, d, b int }{{16, 2, 16}, {8, 4, 8}, {4, 8, 16}, {2, 16, 16}} {
		pt, err := versusModel(directChimera(model.BERT48(), c.d, 512/c.w/c.b, c.b, c.w))
		if err != nil {
			return nil, err
		}
		e := pt.modelErr
		r.addf("W=%-3d D=%-3d B=%-3d error=%.1f%%", c.w, c.d, c.b, e*100)
		if e > worst {
			worst = e
		}
	}
	r.addf("worst error %.1f%% (paper: <10%%)", worst*100)
	r.Metrics["worst-error"] = worst
	return r, nil
}

// AblationZeRO quantifies ZeRO-1 optimizer-state sharding (the paper's §2
// future-work direction): peak-memory reduction versus the parameter
// allgather it adds to each iteration.
func AblationZeRO() (*Report, error) {
	r := newReport("ablation-zero", "ZeRO-1 optimizer-state sharding (GPT-2, D=16, W=32)")
	for _, zero := range []bool{false, true} {
		spec := directChimera(model.GPT2(), 16, 16, 1, 32)
		spec.ZeRO = zero
		o := eng.Evaluate(spec)
		if o.Err != nil {
			return nil, o.Err
		}
		res := o.Result
		peak := slices.Max(res.PeakMemBytes)
		r.addf("zero=%-5v iter=%.3fs peak=%.2f GiB throughput=%.1f seq/s",
			zero, res.IterTime, float64(peak)/(1<<30), res.Throughput)
		r.Metrics[fmt.Sprintf("peak:zero=%v", zero)] = float64(peak)
		r.Metrics[fmt.Sprintf("iter:zero=%v", zero)] = res.IterTime
	}
	return r, nil
}

// AblationCompression models the conclusion's next step — gradient
// sparsification/quantization — as allreduce bandwidth reduction, at the
// sync-bound GPT-2 configuration.
func AblationCompression() (*Report, error) {
	r := newReport("ablation-compression", "Gradient compression (GPT-2, D=8, W=64)")
	for _, c := range []struct {
		name   string
		factor float64
	}{{"fp32 (exact)", 1.0}, {"int8 quantized", 0.26}, {"top-1% sparse", 0.02}} {
		spec := directChimera(model.GPT2(), 8, 8, 1, 64)
		spec.Recompute, spec.CompressionFactor = true, c.factor
		o := eng.Evaluate(spec)
		if o.Err != nil {
			return nil, o.Err
		}
		res := o.Result
		r.addf("%-15s iter=%.3fs sync=%.3fs throughput=%.1f seq/s",
			c.name, res.IterTime, res.SyncTime, res.Throughput)
		r.Metrics["iter:"+c.name] = res.IterTime
	}
	r.addf("runtime counterparts: pipeline.CompressInt8 / CompressTopK (lossy but replica-consistent)")
	return r, nil
}
