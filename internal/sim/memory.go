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
// over many micro-batch sizes (the planner's, per candidate) allocates once.
// Not safe for concurrent use.
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
			if cfg.ZeRO && res.Synchronous {
				// ZeRO-1: weights + gradients stay replicated (8 B/param); the
				// optimizer state (momentum, 4 B/param) is sharded across the
				// stage's holder group.
				r := int64(res.Replicas * cfg.W)
				m.weights[w] += params * (8 + (4+r-1)/r)
			} else {
				m.weights[w] += params * model.BytesPerParamTraining
			}
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
// stage table — cfg.Model partitioned at the profile's depth, which the
// planner's micro-batch search (through engine.Residency) derives once per
// candidate rather than once per B tried — reusing m's storage. cfg.Schedule
// is not consulted, so a caller holding the profile of an equivalent
// (shorter) schedule never builds the schedule it is asking about. Nothing
// but the storage outlives the call: cfg is validated and the scratch
// cleared every time.
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
