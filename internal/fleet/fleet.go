// Package fleet is the multi-job cluster allocator and fleet simulator on
// top of the planner: given one cluster and a set of training jobs competing
// for its nodes, it decides how many nodes each job gets and lets
// perfmodel.PlanOn pick each job's (W, D, B), maximizing fleet-wide
// weighted throughput Σ priority·throughput.
//
// Two allocation policies are implemented. EqualSplit is the naive
// baseline every cluster operator starts from: divide the nodes evenly and
// let each job plan inside its share. PlannerGuided is the incremental
// allocator this package exists for: start from an empty allocation and
// greedily hand node quanta (2 nodes — the smallest even worker count a
// bidirectional pipeline needs) to the job with the best marginal
// predicted-throughput gain per quantum, considering every extension that
// reaches a new step of the job's throughput curve, so the step shape
// (feasibility jumps in P) cannot trap the greedy below a step. Every
// candidate evaluation is a full §3.4 plan, memoized by its PlanRequest
// through the shared engine's schedule and critical-path caches plus a
// fleet-level plan memo. The steps sit at the job's breakpoints, the few
// worker counts the planner's grid admits (perfmodel.Breakpoints), so each
// job's plans sit in a plan curve (planCurve) over those points, resolved
// through the memo on first use, and no search visits another worker count or
// walks an idle pool. The static allocator builds its curves per call; the
// elastic simulator keeps one per vocabulary job and shares them with its
// what-if forks.
//
// Heterogeneous clusters: Cluster.SpeedFactors gives each node a
// compute-time multiplier (1 = nominal, 2 = twice as slow). Nodes are
// handed out fastest-first, and a job's throughput is the homogeneous plan
// prediction divided by the factor of the slowest node its plan actually
// uses — the synchronous-training bound the straggler ablation
// (ablation-heterogeneous) measures: a pipeline runs at its slowest
// worker's pace. Setting Cluster.Scheduler lets heterogeneous shares
// additionally bid with a list-scheduled plan (HEFT and friends re-shape
// the placement around the share's actual per-node factors) and the
// allocator keeps whichever candidate predicts higher throughput.
//
// Everything here is deterministic like every other sweep in the repo:
// allocation results are in job input order, every comparison carries a
// total tie-break (job index), and no step depends on the engine's pool
// size — the same Request yields bit-identical Allocations on one worker
// or many.
package fleet

import (
	"fmt"
	"math"

	"chimera/internal/model"
	"chimera/internal/perfmodel"
	"chimera/internal/sim"
)

// Policy names an allocation policy.
type Policy string

const (
	// EqualSplit divides the cluster's nodes evenly across jobs,
	// ignoring priorities and scaling behavior — the naive baseline.
	EqualSplit Policy = "equal-split"
	// PlannerGuided greedily assigns node quanta to the job with the best
	// marginal weighted predicted-throughput gain under the §3.4 planner.
	PlannerGuided Policy = "planner-guided"
)

// Policies lists the supported allocation policy names.
func Policies() []string { return []string{string(EqualSplit), string(PlannerGuided)} }

// Quantum is the node-allocation granularity: pipelines need an even worker
// count (D ≥ 2 and even), so nodes move between jobs two at a time.
const Quantum = 2

// MaxNodes is the one node limit: a request's cluster, and an elastic
// scenario's initial nodes plus every join.
const MaxNodes = 1 << 16

// MaxJobs bounds a request's job list; it exists for the same reason as the
// serve layer's size caps — one request must not be able to provoke an
// unbounded amount of planning work.
const MaxJobs = 64

// Cluster describes the shared node pool jobs compete for.
type Cluster struct {
	// Nodes is the total node count.
	Nodes int
	// SpeedFactors, when non-empty, gives node i's compute-time multiplier
	// (1 = nominal, 2 = twice as slow); length must equal Nodes and every
	// factor must lie in [sim.MinSpeedFactor, sim.MaxSpeedFactor]. Empty
	// means homogeneous.
	SpeedFactors []float64
	// Device and Network describe one node and the interconnect — every
	// node runs the same accelerator; SpeedFactors expresses the per-node
	// deviation.
	Device  sim.Device
	Network sim.Network
	// Scheduler, when non-empty, lets heterogeneous shares additionally
	// bid with a list-scheduled plan (a schedule.Schedulers() name or
	// "auto"): the planner re-shapes the placement around the share's
	// actual per-node factors instead of bounding the whole pipeline by
	// its slowest node. Empty keeps the pre-policy behavior — homogeneous
	// plans divided by the straggler factor.
	Scheduler string
}

// Job is one training job asking for nodes.
type Job struct {
	// Name identifies the job in results and traces. Must be unique within
	// a request.
	Name  string
	Model model.Config
	// MiniBatch is the job's target mini-batch size B̂.
	MiniBatch int
	// Priority weights the job in the fleet objective Σ priority·throughput
	// (and is how the simulator breaks nothing — it is an objective weight,
	// not a preemption class). 0 means 1.
	Priority float64
	// Deadline, when positive, is the job's completion deadline in seconds
	// after its arrival; only the fleet simulator consults it (reported as
	// missed/met, never enforced).
	Deadline float64
	// MaxB caps the per-job greedy micro-batch search (0 = planner default).
	MaxB int
	// MaxNodes caps how many nodes the job's plan may drive (0 = no cap;
	// otherwise even and ≥ 2). Real jobs bound their parallelism — a model
	// only partitions so deep — and a cap makes a job's throughput curve
	// saturate, which is what lets the elastic simulator's incremental
	// re-planner agree with a full re-plan when capacity exceeds demand on
	// a homogeneous pool (with mixed node speeds the warm start keeps a
	// job on its surviving nodes rather than reshuffling onto faster
	// joiners, so the two policies may legitimately settle differently).
	MaxNodes int
}

// priority returns the job's effective objective weight.
func (j Job) priority() float64 {
	if j.Priority == 0 {
		return 1
	}
	return j.Priority
}

// Request is one fleet-allocation problem.
type Request struct {
	Cluster Cluster
	Jobs    []Job
	// Policy selects the allocator; empty means PlannerGuided.
	Policy Policy
}

// policy returns the request's effective policy.
func (r Request) policy() Policy {
	if r.Policy == "" {
		return PlannerGuided
	}
	return r.Policy
}

// Validate checks the request's structural invariants. Allocate calls it;
// surface layers (serve, CLI) call it too so their errors name the field
// before any planning work starts.
func (r Request) Validate() error {
	if r.Cluster.Nodes < Quantum || r.Cluster.Nodes > MaxNodes {
		return fmt.Errorf("fleet: cluster nodes must be in [%d, %d], got %d", Quantum, MaxNodes, r.Cluster.Nodes)
	}
	if n := len(r.Cluster.SpeedFactors); n != 0 && n != r.Cluster.Nodes {
		return fmt.Errorf("fleet: speed_factors has %d entries, cluster has %d nodes (lengths must match)",
			n, r.Cluster.Nodes)
	}
	if err := sim.CheckSpeedFactors("speed_factors", r.Cluster.SpeedFactors...); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := perfmodel.ValidateScheduler(r.Cluster.Scheduler); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if len(r.Jobs) == 0 {
		return fmt.Errorf("fleet: request has no jobs")
	}
	if len(r.Jobs) > MaxJobs {
		return fmt.Errorf("fleet: %d jobs exceed the limit %d", len(r.Jobs), MaxJobs)
	}
	seen := make(map[string]bool, len(r.Jobs))
	for i, j := range r.Jobs {
		if j.Name == "" {
			return fmt.Errorf("fleet: job %d has no name", i)
		}
		if seen[j.Name] {
			return fmt.Errorf("fleet: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.MiniBatch < 1 {
			return fmt.Errorf("fleet: job %q mini-batch must be ≥ 1, got %d", j.Name, j.MiniBatch)
		}
		if j.Priority < 0 || math.IsNaN(j.Priority) || math.IsInf(j.Priority, 0) {
			return fmt.Errorf("fleet: job %q priority must be finite and ≥ 0, got %g", j.Name, j.Priority)
		}
		if j.Deadline < 0 || math.IsNaN(j.Deadline) || math.IsInf(j.Deadline, 0) {
			return fmt.Errorf("fleet: job %q deadline must be finite and ≥ 0, got %g", j.Name, j.Deadline)
		}
		if j.MaxB < 0 {
			return fmt.Errorf("fleet: job %q max_b must be ≥ 0, got %d", j.Name, j.MaxB)
		}
		if j.MaxNodes != 0 && (j.MaxNodes < Quantum || j.MaxNodes%Quantum != 0) {
			return fmt.Errorf("fleet: job %q max_nodes must be 0 or an even count ≥ %d, got %d",
				j.Name, Quantum, j.MaxNodes)
		}
	}
	switch r.policy() {
	case EqualSplit, PlannerGuided:
	default:
		return fmt.Errorf("fleet: unknown policy %q (have %s, %s)", r.Policy, EqualSplit, PlannerGuided)
	}
	return nil
}
