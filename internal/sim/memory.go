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
func PeakMemory(cfg *Config, stages []model.Stage) []int64 {
	res := cfg.Schedule.Residency()
	out := weightMemory(cfg, stages, res)
	act := stageActivationBytes(cfg, stages)
	for w := range out {
		out[w] += activationPeak(cfg, act, &res.Workers[w], cfg.Recompute)
	}
	return out
}

// weightMemory returns, per worker, the training-state bytes of the stage
// replicas it hosts.
func weightMemory(cfg *Config, stages []model.Stage, res *schedule.Residency) []int64 {
	out := make([]int64, len(res.Workers))
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
				out[w] += params * (8 + (4+r-1)/r)
			} else {
				out[w] += params * model.BytesPerParamTraining
			}
			// Extra stashed versions store weights only (fp32), not
			// gradients or optimizer state.
			out[w] += (versions - 1) * params * 4
		}
	}
	return out
}

// stageActivationBytes returns each stage's full activation footprint for
// one micro-batch of the configuration's size.
func stageActivationBytes(cfg *Config, stages []model.Stage) []int64 {
	act := make([]int64, len(stages))
	for i := range stages {
		act[i] = stages[i].ActivationBytes(cfg.MicroBatch)
	}
	return act
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
// paper's figures annotate with R and OOM.
func FitsMemory(cfg Config) (plain, withRecompute bool, err error) {
	if cfg.Schedule == nil {
		return false, false, errNilSchedule
	}
	return FitsResidency(cfg, cfg.Schedule.Residency())
}

// FitsResidency is FitsMemory answered from a residency profile alone:
// cfg.Schedule is not consulted, so a caller holding the profile of an
// equivalent (shorter) schedule — the planner's B search, through
// engine.Residency — never builds the schedule it is asking about. The
// model is partitioned and weights are priced once for both answers.
func FitsResidency(cfg Config, res *schedule.Residency) (plain, withRecompute bool, err error) {
	if err := validateFor(&cfg, len(res.Workers)); err != nil {
		return false, false, err
	}
	stages, err := cfg.Model.Partition(len(res.Workers))
	if err != nil {
		return false, false, err
	}
	weights := weightMemory(&cfg, stages, res)
	act := stageActivationBytes(&cfg, stages)
	plain, withRecompute = true, true
	for w := range res.Workers {
		if weights[w]+activationPeak(&cfg, act, &res.Workers[w], false) > cfg.Device.MemBytes {
			plain = false
		}
		if weights[w]+activationPeak(&cfg, act, &res.Workers[w], true) > cfg.Device.MemBytes {
			withRecompute = false
		}
	}
	return plain, withRecompute, nil
}

// AutoRun simulates the configuration, enabling recomputation automatically
// when the plain configuration does not fit (the paper's R annotation).
// Returns the result and whether recomputation was used; OOM in the result
// indicates even recomputation does not fit.
func AutoRun(cfg Config) (*Result, bool, error) {
	if err := validate(&cfg); err != nil {
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
