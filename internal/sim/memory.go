package sim

import (
	"fmt"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// MemoryFit is the memory model's working storage: what a fit prices before
// it reads a residency profile — training-state bytes per worker, activation
// bytes per stage. The zero value is ready to use. One value may be driven
// through any sequence of configurations, depths and schemes — every call
// re-sizes, clears and refills it, and nothing carries over — so a search
// over many micro-batch sizes allocates once. The planner drives it for the
// list placement policies, whose profiles their own schedules walk; direct
// Chimera's fixed placement has ChimeraFit. Not safe for concurrent use.
type MemoryFit struct {
	weights []int64 // per worker
	act     []int64 // per stage
}

// PeakMemory returns the per-worker peak memory in bytes for the
// configuration: training state for every hosted stage replica (plus
// stashed weight versions for asynchronous schemes) and the peak activation
// residency priced off the schedule's residency profile.
//
// With recomputation, each in-flight micro-batch holds only its boundary
// input; one full stage activation set is transiently materialized during
// the backward pass (the recompute working set).
func PeakMemory(cfg *Config, stages []model.Stage) []int64 {
	res := cfg.Schedule.Residency()
	var m MemoryFit // fresh: the result is the caller's to keep
	m.price(cfg, stages, res)
	for w := range m.weights {
		m.weights[w] += activationPeak(cfg, m.act, &res.Workers[w], cfg.Recompute)
	}
	return m.weights
}

// zeroed returns s with length n and every element zero, reusing its array
// when that is large enough.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// price fills the scratch for one configuration: per worker, the
// training-state bytes of the stage replicas it hosts; per stage, the full
// activation footprint of one micro-batch of the configuration's size.
func (m *MemoryFit) price(cfg *Config, stages []model.Stage, res *schedule.Residency) {
	m.weights = zeroed(m.weights, len(res.Workers))
	for w := range res.Workers {
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
		for _, pl := range wr.Hosted {
			params := stages[pl.Stage].Params()
			m.weights[w] += stateBytes(params, cfg.ZeRO && res.Synchronous, res.Replicas*cfg.W)
			// Extra stashed versions store weights only (fp32), not
			// gradients or optimizer state.
			m.weights[w] += (versions - 1) * params * 4
		}
	}
	m.act = zeroed(m.act, len(stages))
	for i := range stages {
		m.act[i] = stages[i].ActivationBytes(cfg.MicroBatch)
	}
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

// activationPeak prices one worker's residency profile: the most bytes any
// of its Pareto-maximal live vectors holds, at act[stage] per resident
// micro-batch — or, with recomputation, at the boundary input per
// micro-batch plus the largest working set among the stages that run here.
// Counts are in half-micro-batches, so the sum is halved (rounding down,
// as the byte-walk this replaces truncated).
func activationPeak(cfg *Config, act []int64, wr *schedule.WorkerResidency, recompute bool) int64 {
	boundary := cfg.Model.BoundaryBytes(cfg.MicroBatch)
	var peak, workingSet int64
	for _, v := range wr.Peaks {
		var sum int64
		for k, units := range v {
			perMicro := act[wr.Hosted[k].Stage]
			if recompute {
				if units > 0 && perMicro > workingSet {
					workingSet = perMicro
				}
				perMicro = boundary
			}
			sum += int64(units) * perMicro
		}
		if sum > peak {
			peak = sum
		}
	}
	return peak/2 + workingSet
}

// FitsMemory reports whether the configuration fits device memory without
// recomputation, and whether it fits with recomputation — the decision the
// paper's figures annotate with R and OOM. It partitions the model and
// prices on fresh scratch; a caller asking about one (model, D) many times
// holds both and calls (*MemoryFit).Fits.
func FitsMemory(cfg Config) (plain, withRecompute bool, err error) {
	if cfg.Schedule == nil {
		return false, false, errNilSchedule
	}
	res := cfg.Schedule.Residency()
	if err := validateFor(&cfg, len(res.Workers)); err != nil {
		return false, false, err
	}
	stages, err := cfg.Model.Partition(len(res.Workers))
	if err != nil {
		return false, false, err
	}
	plain, withRecompute = new(MemoryFit).fits(&cfg, stages, res)
	return plain, withRecompute, nil
}

// Fits is FitsMemory answered from a residency profile and the caller's
// stage table — cfg.Model partitioned at the profile's depth, which a
// micro-batch search derives once per candidate rather than once per B
// tried — reusing m's storage. cfg.Schedule is not consulted, so a caller
// holding the profile of an equivalent (shorter) schedule never builds the
// schedule it is asking about. Nothing but the storage outlives the call:
// cfg is validated and the scratch cleared every time.
func (m *MemoryFit) Fits(cfg Config, stages []model.Stage, res *schedule.Residency) (plain, withRecompute bool, err error) {
	if err := validateFor(&cfg, len(res.Workers)); err != nil {
		return false, false, err
	}
	if len(stages) != len(res.Workers) {
		return false, false, fmt.Errorf("sim: %d stages for a residency profile of %d workers", len(stages), len(res.Workers))
	}
	plain, withRecompute = m.fits(&cfg, stages, res)
	return plain, withRecompute, nil
}

// fits prices a validated configuration once and answers both questions.
func (m *MemoryFit) fits(cfg *Config, stages []model.Stage, res *schedule.Residency) (plain, withRecompute bool) {
	m.price(cfg, stages, res)
	plain, withRecompute = true, true
	for w := range res.Workers {
		if m.weights[w]+activationPeak(cfg, m.act, &res.Workers[w], false) > cfg.Device.MemBytes {
			plain = false
		}
		if m.weights[w]+activationPeak(cfg, m.act, &res.Workers[w], true) > cfg.Device.MemBytes {
			withRecompute = false
		}
	}
	return plain, withRecompute
}

// ChimeraFit is (*MemoryFit).Fits for direct Chimera's fixed placement,
// priced once for every micro-batch size: the planner's greedy B search at
// one (model, D, W, device, ZeRO). Price derives what B does not change —
// per worker the training state of the two stages it hosts, per stage
// ActivationBytes(1), and BoundaryBytes(1) — and Fits scales them by B.
// ActivationBytes(b) and BoundaryBytes(b) are exactly b times their value
// at 1 in int64, and worker w's one residency row is
// schedule.ChimeraConfig.ResidencyRow(w), so each answer is O(D) integer
// work that allocates nothing and equals (*MemoryFit).Fits on the profile
// schedule.ChimeraConfig.Residency gives. The zero value is ready to use;
// Price re-sizes and refills it, so one value may serve many candidates.
// Not safe for concurrent use.
type ChimeraFit struct {
	weights  []int64 // per worker: training state of stages w and D−1−w
	act      []int64 // per stage: activation bytes of one sample
	boundary int64   // boundary bytes of one sample
	mem      int64   // device memory, after validateFor's defaults
}

// Price prices cfg for Chimera at the depth of stages, cfg.Model
// partitioned for it. cfg.MicroBatch and cfg.Schedule are not read; Fits
// takes B. It checks once what (*MemoryFit).Fits checks on every call for
// a B ≥ 1, validateFor's rules, and returns Chimera's error for a depth
// Chimera does not build.
func (f *ChimeraFit) Price(cfg Config, stages []model.Stage) error {
	d := len(stages)
	if err := (schedule.ChimeraConfig{D: d, N: 1}).Validate(); err != nil {
		return err
	}
	cfg.MicroBatch = 1
	if err := validateFor(&cfg, d); err != nil {
		return err
	}
	f.weights, f.act = zeroed(f.weights, d), zeroed(f.act, d)
	for w := range d / 2 {
		// Workers w and D−1−w host the same two stages. Chimera is
		// synchronous with two replicas: r = 2·W holders.
		both := stateBytes(stages[w].Params(), cfg.ZeRO, 2*cfg.W) + stateBytes(stages[d-1-w].Params(), cfg.ZeRO, 2*cfg.W)
		f.weights[w], f.weights[d-1-w] = both, both
	}
	for i := range stages {
		f.act[i] = stages[i].ActivationBytes(1)
	}
	f.boundary = cfg.Model.BoundaryBytes(1)
	f.mem = cfg.Device.MemBytes
	return nil
}

// Fits reports whether the priced configuration fits device memory at
// micro-batch size b ≥ 1 and N = n ≥ 1 micro-batches per pipeline, without
// and with recomputation: activationPeak over worker w's one row, with
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
