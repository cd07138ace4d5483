package sim

import (
	"chimera/internal/model"
	"chimera/internal/schedule"
)

// PeakMemory returns the per-worker peak memory in bytes for the
// configuration: training state for every hosted stage replica (plus
// stashed weight versions for asynchronous schemes) and the peak activation
// residency priced off the schedule's residency profile.
//
// With recomputation, each in-flight micro-batch holds only its boundary
// input; one full stage activation set is transiently materialized during
// the backward pass (the recompute working set).
func PeakMemory(cfg *Config) []int64 {
	res := cfg.Schedule.Residency()
	out := make([]int64, len(res.Workers))
	for w := range out {
		weights, plain, withRecompute := workerMemory(cfg, res, w)
		out[w] = weights + plain
		if cfg.Recompute {
			out[w] = weights + withRecompute
		}
	}
	return out
}

// FitsMemory reports whether the configuration fits device memory without
// recomputation, and whether it fits with recomputation — the decision the
// paper's figures annotate with R and OOM. It validates cfg as Run does and
// prices the schedule's residency profile, which the schedule caches, in
// one pass per worker; it allocates nothing.
func FitsMemory(cfg Config) (plain, withRecompute bool, err error) {
	if err := cfg.Validate(); err != nil {
		return false, false, err
	}
	res := cfg.Schedule.Residency()
	plain, withRecompute = true, true
	for w := range res.Workers {
		weights, act, actRecompute := workerMemory(&cfg, res, w)
		plain = plain && weights+act <= cfg.Device.MemBytes
		withRecompute = withRecompute && weights+actRecompute <= cfg.Device.MemBytes
	}
	return plain, withRecompute, nil
}

// workerMemory prices worker w of a residency profile for cfg, its model
// split at the profile's depth: the training-state bytes of the stage
// replicas it hosts, and its activation peak without and with
// recomputation. A peak is the most bytes any of the worker's
// Pareto-maximal live vectors holds, at the stage's activation bytes per
// resident micro-batch — or, with recomputation, at the boundary input per
// micro-batch plus the largest working set among the stages that run here.
// Counts are in half-micro-batches, so each sum is halved (rounding down,
// as the byte-walk this replaces truncated).
func workerMemory(cfg *Config, res *schedule.Residency, w int) (weights, plain, withRecompute int64) {
	d := len(res.Workers)
	wr := &res.Workers[w]
	// Asynchronous schemes stash extra weight versions: PipeDream one per
	// in-flight micro-batch (lower-bounded by the live weights),
	// PipeDream-2BW a double buffer.
	versions := int64(1)
	if !res.Synchronous {
		switch res.Scheme {
		case "pipedream":
			versions = int64(wr.WeightStash())
		case "pipedream-2bw":
			versions = 2
		}
	}
	// Each hosted stage is derived once; its activation bytes per resident
	// micro-batch go on the stack for every placement a worker hosts in
	// practice.
	var buf [8]int64
	act := buf[:0]
	for _, pl := range wr.Hosted {
		st := cfg.Model.Stage(pl.Stage, d)
		params := st.Params()
		weights += stateBytes(params, cfg.ZeRO && res.Synchronous, res.Replicas*cfg.W)
		// Extra stashed versions store weights only (fp32), not gradients
		// or optimizer state.
		weights += (versions - 1) * params * 4
		act = append(act, st.ActivationBytes(cfg.MicroBatch))
	}
	boundary := cfg.Model.BoundaryBytes(cfg.MicroBatch)
	var workingSet int64
	for _, v := range wr.Peaks {
		var sum, units int64
		for k, u := range v {
			if u > 0 {
				workingSet = max(workingSet, act[k])
			}
			sum += int64(u) * act[k]
			units += int64(u)
		}
		plain = max(plain, sum)
		withRecompute = max(withRecompute, units*boundary)
	}
	return weights, plain / 2, withRecompute/2 + workingSet
}

// stateBytes is the training state of one stage replica of params
// parameters. With ZeRO-1 (zero), weights and gradients stay replicated
// (8 B/param) and the optimizer state (momentum, 4 B/param) is sharded
// across the stage's r holders.
func stateBytes(params int64, zero bool, r int) int64 {
	if !zero {
		return params * model.BytesPerParamTraining
	}
	holders := int64(r)
	return params * (8 + (4+holders-1)/holders)
}

// ChimeraFit is FitsMemory for direct Chimera's fixed placement, priced
// once for every micro-batch size: the planner's greedy B search at one
// (model, D, W, device, ZeRO). Price derives what B does not change — per
// worker the training state of the two stages it hosts, per stage
// ActivationBytes(1), and BoundaryBytes(1) — and Fits scales them by B.
// ActivationBytes(b) and BoundaryBytes(b) are exactly b times their value
// at 1 in int64, and worker w's one residency row is
// schedule.ChimeraConfig.ResidencyRow(w), so each answer is O(D) integer
// work that allocates nothing and equals FitsMemory on the built
// schedule. The zero value is ready to use; Price re-sizes and refills it,
// so one value may serve many candidates. Not safe for concurrent use.
type ChimeraFit struct {
	weights  []int64 // per worker: training state of stages w and D−1−w
	act      []int64 // per stage: activation bytes of one sample
	boundary int64   // boundary bytes of one sample
	mem      int64   // device memory, after validateFor's defaults
}

// Price prices cfg for Chimera at depth d. cfg.MicroBatch and cfg.Schedule
// are not read; Fits takes B. It checks once what FitsMemory checks on
// every call for a B ≥ 1, validateFor's rules, and returns Chimera's error
// for a depth Chimera does not build.
func (f *ChimeraFit) Price(cfg Config, d int) error {
	if err := (schedule.ChimeraConfig{D: d, N: 1}).Validate(); err != nil {
		return err
	}
	cfg.MicroBatch = 1
	if err := validateFor(&cfg, d); err != nil {
		return err
	}
	if cap(f.weights) < d {
		f.weights, f.act = make([]int64, d), make([]int64, d)
	}
	f.weights, f.act = f.weights[:d], f.act[:d]
	for w := range d / 2 {
		// Workers w and D−1−w host the same two stages. Chimera is
		// synchronous with two replicas: r = 2·W holders.
		down, up := cfg.Model.Stage(w, d), cfg.Model.Stage(d-1-w, d)
		both := stateBytes(down.Params(), cfg.ZeRO, 2*cfg.W) + stateBytes(up.Params(), cfg.ZeRO, 2*cfg.W)
		f.weights[w], f.weights[d-1-w] = both, both
		f.act[w], f.act[d-1-w] = down.ActivationBytes(1), up.ActivationBytes(1)
	}
	f.boundary = cfg.Model.BoundaryBytes(1)
	f.mem = cfg.Device.MemBytes
	return nil
}

// Fits reports whether the priced configuration fits device memory at
// micro-batch size b ≥ 1 and N = n ≥ 1 micro-batches per pipeline, without
// and with recomputation: workerMemory's peaks over worker w's one row, with
// act[stage] = b·ActivationBytes(1) and boundary = b·BoundaryBytes(1).
func (f *ChimeraFit) Fits(b, n int) (plain, withRecompute bool) {
	d := len(f.weights)
	rows := schedule.ChimeraConfig{D: d, N: n}
	scale := int64(b)
	boundary := scale * f.boundary
	plain, withRecompute = true, true
	for w := 0; w < d && (plain || withRecompute); w++ {
		down, up := rows.ResidencyRow(w)
		actDown, actUp := scale*f.act[w], scale*f.act[d-1-w]
		if f.weights[w]+max(int64(down)*actDown+int64(up)*actUp, 0)/2 > f.mem {
			plain = false
		}
		// The recompute working set: the largest stage activation among
		// the placements resident in the row.
		var workingSet int64
		if down > 0 {
			workingSet = max(workingSet, actDown)
		}
		if up > 0 {
			workingSet = max(workingSet, actUp)
		}
		if f.weights[w]+(max(int64(down)*boundary+int64(up)*boundary, 0)/2+workingSet) > f.mem {
			withRecompute = false
		}
	}
	return plain, withRecompute
}

// AutoRun simulates the configuration, enabling recomputation automatically
// when the plain configuration does not fit (the paper's R annotation).
// Returns the result and whether recomputation was used; OOM in the result
// indicates even recomputation does not fit.
func AutoRun(cfg Config) (*Result, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	plain, _, err := FitsMemory(cfg)
	if err != nil {
		return nil, false, err
	}
	cfg.Recompute = !plain
	res, err := Run(cfg)
	return res, cfg.Recompute, err
}
