package experiments

import (
	"fmt"
	"math"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// eng is the shared evaluation engine and the suite's only way to simulate
// a point: every figure point is an engine.Spec evaluated here, so every
// figure sweep fans its grid out over the same worker pool and reuses the
// same memoized schedules and simulator results. Figures that first search
// a grid for the best point and then re-walk it for printing (Figure 10/11
// style) hit the cache on the second walk instead of simulating everything
// twice.
var eng = engine.Default()

// platform bundles a device and network (Piz Daint or the V100 cluster).
type platform struct {
	dev sim.Device
	net sim.Network
}

func pizDaint() platform { return platform{sim.PizDaintNode(), sim.AriesNetwork()} }
func v100Cluster() platform {
	return platform{sim.V100Node(), sim.NVLinkIBNetwork()}
}

// runConfig describes one point of a sweep.
type runConfig struct {
	scheme string
	d, b   int
	// f and concat apply to chimera only.
	f      int
	concat schedule.ConcatMode
}

// pointSpec translates one sweep point into an engine spec, performing the
// feasibility checks that need no simulation (divisibility, scheme rules).
// Returns ok=false when the point is structurally infeasible.
func pointSpec(m model.Config, plat platform, p, bhat int, rc runConfig) (engine.Spec, bool) {
	d := rc.d
	if p%d != 0 || m.Layers%d != 0 {
		return engine.Spec{}, false
	}
	w := p / d
	if bhat%(w*rc.b) != 0 {
		return engine.Spec{}, false
	}
	n := bhat / (w * rc.b)
	if n < 1 {
		return engine.Spec{}, false
	}
	// PipeDream-2BW needs gradient accumulation over N ≥ D micro-batches
	// for its two stashed weight versions to be sufficient (§2).
	if rc.scheme == "pipedream-2bw" && n < d {
		return engine.Spec{}, false
	}
	key := engine.ScheduleKey{Scheme: rc.scheme, D: d, N: n}
	if rc.scheme == "chimera" {
		if rc.concat != schedule.Direct && n%d != 0 {
			return engine.Spec{}, false
		}
		key = engine.ChimeraKey(d, n, rc.f, rc.concat)
	}
	return engine.Spec{
		Sched: key, Model: m, MicroBatch: rc.b, W: w,
		AutoRecompute: true,
		Device:        plat.dev, Network: plat.net,
	}, true
}

// evalPoint simulates one (scheme, W, D, B) point for mini-batch size bhat
// on P workers, enabling recomputation automatically when needed. Returns
// nil when the point is infeasible (does not divide, or OOM even with
// recomputation).
func evalPoint(m model.Config, plat platform, p, bhat int, rc runConfig) (*sim.Result, bool) {
	spec, ok := pointSpec(m, plat, p, bhat, rc)
	if !ok {
		return nil, false
	}
	return outcomePoint(eng.Evaluate(spec))
}

// outcomePoint converts an engine outcome to evalPoint's (result, recompute)
// convention: nil for errors (e.g. schedule construction) and for OOM.
func outcomePoint(o engine.Outcome) (*sim.Result, bool) {
	if o.Err != nil || o.Result == nil || o.Result.OOM {
		return nil, false
	}
	return o.Result, o.Recompute
}

// directChimera is the spec of a direct-concatenation Chimera point (F = 1,
// N micro-batches of size b per worker) on w Piz Daint replicas; callers set
// the knobs they vary before evaluating it on eng.
func directChimera(m model.Config, d, n, b, w int) engine.Spec {
	plat := pizDaint()
	return engine.Spec{Sched: engine.ChimeraKey(d, n, 0, schedule.Direct), Model: m,
		MicroBatch: b, W: w, Device: plat.dev, Network: plat.net}
}

// modelPoint is §4.2.2's comparison at one point: the simulated result, the
// recomputation it ran with, the Eq. 1 prediction for the same
// configuration and the model error |predicted − simulated| / simulated
// iteration time.
type modelPoint struct {
	res       *sim.Result
	recompute bool
	pred      *perfmodel.Prediction
	modelErr  float64
}

// versusModel evaluates spec on eng and Eq. 1 beside it, with the
// recomputation the evaluation chose and (Cf, Cb) from the engine's
// memoized critical path for the spec's schedule.
func versusModel(spec engine.Spec) (modelPoint, error) {
	o := eng.Evaluate(spec)
	if o.Err != nil {
		return modelPoint{}, o.Err
	}
	s, err := eng.Schedule(spec.Sched)
	if err != nil {
		return modelPoint{}, err
	}
	cfg, err := spec.Config(s)
	if err != nil {
		return modelPoint{}, err
	}
	cfg.Recompute = o.Recompute
	cf, cb, err := eng.CriticalPath(spec.Sched)
	if err != nil {
		return modelPoint{}, err
	}
	pred, err := perfmodel.PredictWithCritical(cfg, cf, cb)
	if err != nil {
		return modelPoint{}, err
	}
	return modelPoint{res: o.Result, recompute: o.Recompute, pred: pred,
		modelErr: math.Abs(pred.IterTime-o.Result.IterTime) / o.Result.IterTime}, nil
}

// sweepResult is one evaluated grid point: the best-throughput selection
// unit of the per-baseline tuning of §4.2.1.
type sweepResult struct {
	res       *sim.Result
	d, b, w   int
	recompute bool
}

// gridPoint pairs a candidate runConfig with its engine spec; ok reports
// whether the point passed the structural feasibility checks (infeasible
// points are kept only by sweeps that report them, e.g. chimeraVariant).
type gridPoint struct {
	rc   runConfig
	bhat int
	spec engine.Spec
	ok   bool
}

// buildGrid expands (d, b, concat-mode) candidates into feasible specs,
// preserving the nesting order of the serial loops it replaces; selection
// scans outcomes in that order, so the chosen point is identical to the
// serial sweep's.
func buildGrid(m model.Config, plat platform, p int, bhatOf func(d, b int) int, rcs []runConfig) []gridPoint {
	var grid []gridPoint
	for _, rc := range rcs {
		bhat := bhatOf(rc.d, rc.b)
		spec, ok := pointSpec(m, plat, p, bhat, rc)
		if !ok {
			continue
		}
		grid = append(grid, gridPoint{rc: rc, bhat: bhat, spec: spec, ok: true})
	}
	return grid
}

// sweepBest evaluates the grid concurrently and returns the best-throughput
// feasible point, scanning in grid order (first strict improvement wins,
// exactly like the serial loops).
func sweepBest(p int, grid []gridPoint) *sweepResult {
	specs := make([]engine.Spec, len(grid))
	for i, g := range grid {
		specs[i] = g.spec
	}
	outs := eng.Sweep(specs)
	var best *sweepResult
	for i, o := range outs {
		res, rec := outcomePoint(o)
		if res == nil {
			continue
		}
		if best == nil || res.Throughput > best.res.Throughput {
			g := grid[i]
			best = &sweepResult{res: res, d: g.rc.d, b: g.rc.b, w: p / g.rc.d, recompute: rec}
		}
	}
	return best
}

// crossProduct enumerates (d, b) runConfigs for one scheme in the serial
// loops' order: d outer, b inner.
func crossProduct(scheme string, ds, bs []int) []runConfig {
	out := make([]runConfig, 0, len(ds)*len(bs))
	for _, d := range ds {
		for _, b := range bs {
			out = append(out, runConfig{scheme: scheme, d: d, b: b})
		}
	}
	return out
}

// bestPoint sweeps D and power-of-two B for one scheme and returns the best
// throughput point (the per-baseline tuning of §4.2.1).
func bestPoint(m model.Config, plat platform, p, bhat int, scheme string, ds, bs []int) *sweepResult {
	grid := buildGrid(m, plat, p, func(_, _ int) int { return bhat }, crossProduct(scheme, ds, bs))
	return sweepBest(p, grid)
}

// pipeDreamBest handles PipeDream's special rule: its mini-batch size is
// limited by memory (gradient update per micro-batch), so it runs the
// largest feasible B̂ = B·N·W rather than the requested one. N = D keeps
// the pipeline full; B̂ follows from memory.
func pipeDreamBest(m model.Config, plat platform, p int, ds, bs []int) *sweepResult {
	grid := buildGrid(m, plat, p,
		func(d, b int) int { return b * d * (p / d) },
		crossProduct("pipedream", ds, bs))
	return sweepBest(p, grid)
}

func recompStr(r bool) string {
	if r {
		return ", R"
	}
	return ""
}

func fmtPoint(sr *sweepResult) string {
	if sr == nil {
		return "infeasible (OOM at all tested configs)"
	}
	return fmt.Sprintf("W=%-3d D=%-3d B=%-3d%s  throughput=%7.1f seq/s  bubble=%.3f",
		sr.w, sr.d, sr.b, recompStr(sr.recompute), sr.res.Throughput, sr.res.BubbleRatio)
}

// speedup formats a ratio like the paper ("1.38x").
func speedup(fast, slow float64) string {
	if fast <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", slow/fast)
}

// gib formats bytes as GiB with two decimals.
func gib(b int64) string { return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30)) }

// powersOfTwo returns {1, 2, 4, ..., max}.
func powersOfTwo(max int) []int {
	var out []int
	for b := 1; b <= max; b *= 2 {
		out = append(out, b)
	}
	return out
}
