package schedule

import "fmt"

// Spec is the unified schedule request: which scheme to generate, which
// placement policy to run over it, and the policy's inputs. It replaces the
// stringly-typed two-call growth path (ByName / Chimera followed by ad-hoc
// re-placement) with one declarative entry point — Build.
type Spec struct {
	// Scheme is the generator name: "chimera" or any Schemes() entry.
	Scheme string
	// Scheduler is the placement policy, one of Schedulers(). "" means
	// "fixed" (the scheme's own hand-derived placement).
	Scheduler string
	// D is the number of pipeline stages, N the micro-batches per worker.
	D, N int
	// F is Chimera's pipelines-per-direction (0 means 1); Concat its
	// N > D scaling mode. Both must be zero-valued for other schemes.
	F      int
	Concat ConcatMode
	// SpeedFactors[w] is worker w's compute-time multiplier (1 = nominal).
	// Empty means homogeneous; otherwise the length must equal D. List
	// policies return the base schedule unchanged when the factors carry no
	// heterogeneity signal (empty or all equal).
	SpeedFactors []float64
}

// Build constructs the schedule a Spec describes: generate the scheme, then
// run the placement policy over its compiled graph. With Scheduler "" or
// "fixed" the scheme's schedule is returned as-is — bit-identical to calling
// the generator directly, with no eager graph compilation. A list policy
// ranks and packs ops under UnitPractical (forward 1, backward 2).
func Build(spec Spec) (*Schedule, error) {
	policy := spec.Scheduler
	if policy == "" {
		policy = "fixed"
	}
	sch, err := SchedulerByName(policy)
	if err != nil {
		return nil, err
	}
	if len(spec.SpeedFactors) != 0 && len(spec.SpeedFactors) != spec.D {
		return nil, fmt.Errorf("schedule: %d speed factors for D=%d (empty or matching length required)",
			len(spec.SpeedFactors), spec.D)
	}
	var base *Schedule
	if spec.Scheme == "chimera" {
		base, err = Chimera(ChimeraConfig{D: spec.D, N: spec.N, F: spec.F, Concat: spec.Concat})
	} else {
		if spec.F > 1 {
			return nil, fmt.Errorf("schedule: F=%d is chimera-only, not %q", spec.F, spec.Scheme)
		}
		if spec.Concat != Direct {
			return nil, fmt.Errorf("schedule: concat mode %v is chimera-only, not %q", spec.Concat, spec.Scheme)
		}
		base, err = ByName(spec.Scheme, spec.D, spec.N)
	}
	if err != nil {
		return nil, err
	}
	if policy == "fixed" {
		return base, nil
	}
	g, err := base.Graph()
	if err != nil {
		return nil, err
	}
	return sch.Schedule(g, UnitPractical, spec.SpeedFactors)
}
