package serve

// Fleet wire types: the /v1/fleet/plan and /v1/fleet/simulate request
// codecs and the scenario format cmd/chimera-fleet reads. The codec maps
// names, presets and size caps and spells out defaults; the fleet package
// validates what it owns (node range, factors, scheduler, jobs, policy,
// replan knobs, traces) through Request.Validate, Scenario.Validate and
// ElasticScenario.Validate, which every resolver calls, so a malformed
// request is a 400 before any planning. Requests resolve into untagged
// fleet values (fleet.Request, Scenario, ElasticScenario)
// whose Go-field-name JSON is the response-cache, routing and snapshot key,
// so those types must not grow tags. Replies are the fleet results
// themselves — fleet.Allocation, SimResult and ElasticResult carry their
// own json tags — so the CLI's -json mode, the HTTP endpoints and the
// controller encode one value one way, and a served fleet plan is
// byte-identical to encoding the in-process chimera.PlanFleet result.

import (
	"fmt"

	"chimera/internal/fleet"
)

// FleetClusterRef describes the shared node pool on the wire.
type FleetClusterRef struct {
	// Nodes is the cluster size.
	Nodes int `json:"nodes"`
	// SpeedFactors, when present, gives node i's compute-time multiplier
	// (1 = nominal); length must equal nodes.
	SpeedFactors []float64   `json:"speed_factors,omitempty"`
	Platform     PlatformRef `json:"platform"`
	// Scheduler, when present, lets heterogeneous shares additionally bid
	// with a list-scheduled plan (a /v1/schedules schedulers name or
	// "auto"); empty keeps the slowest-node-bound behavior.
	Scheduler string `json:"scheduler,omitempty"`
}

// FleetJobRef is one job competing for nodes.
type FleetJobRef struct {
	Name  string   `json:"name"`
	Model ModelRef `json:"model"`
	// MiniBatch is the job's target mini-batch size B̂.
	MiniBatch int `json:"mini_batch"`
	// Priority weights the job in the fleet objective (default 1).
	Priority float64 `json:"priority,omitempty"`
	// Deadline is the job's completion deadline in seconds after arrival
	// (simulation only; 0 = none).
	Deadline float64 `json:"deadline,omitempty"`
	// MaxB caps the job's greedy micro-batch search (default 64).
	MaxB int `json:"max_b,omitempty"`
	// MaxNodes caps how many nodes the job's plan may drive (0 = no cap;
	// otherwise even and ≥ 2).
	MaxNodes int `json:"max_nodes,omitempty"`
}

// FleetPlanRequest is the /v1/fleet/plan body: one fleet-allocation
// problem.
type FleetPlanRequest struct {
	Cluster FleetClusterRef `json:"cluster"`
	Jobs    []FleetJobRef   `json:"jobs"`
	// Policy: planner-guided (default) | equal-split.
	Policy string `json:"policy,omitempty"`
}

// FleetArrivalRef is one trace event of a fleet scenario.
type FleetArrivalRef struct {
	// At is the arrival time in seconds.
	At float64 `json:"at"`
	// Job names an entry of the scenario's job list.
	Job string `json:"job"`
	// Work is the number of sequences the instance processes before
	// departing.
	Work float64 `json:"work"`
}

// FleetEventRef is one elastic-trace event on the wire: an arrival (kind
// omitted or "arrival", with job and work) or node churn (node_fail and
// node_drain with node; node_join with optional factor).
type FleetEventRef struct {
	At   float64 `json:"at"`
	Kind string  `json:"kind,omitempty"`
	Job  string  `json:"job,omitempty"`
	Work float64 `json:"work,omitempty"`
	Node int     `json:"node,omitempty"`
	// Factor is the joining node's speed factor (0 = nominal).
	Factor float64 `json:"factor,omitempty"`
	// Class is the joining node's capacity class ("on-demand" or "spot";
	// empty = on-demand); Price its cost rate per second (0 = free).
	Class string  `json:"class,omitempty"`
	Price float64 `json:"price,omitempty"`
}

// FleetScenario is the chimera-fleet scenario file format and the
// /v1/fleet/simulate body: a plan request plus either a classic arrival
// trace (trace) or an elastic event trace (events, with churn and the
// re-plan knobs).
type FleetScenario struct {
	Cluster FleetClusterRef   `json:"cluster"`
	Jobs    []FleetJobRef     `json:"jobs"`
	Policy  string            `json:"policy,omitempty"`
	Trace   []FleetArrivalRef `json:"trace,omitempty"`
	// Events, when present, selects the elastic simulator (mutually
	// exclusive with trace).
	Events []FleetEventRef `json:"events,omitempty"`
	// Replan: incremental (default) | full.
	Replan string `json:"replan,omitempty"`
	// MigrationPenalty is the restart cost in seconds per pipeline stage of
	// a migrating job's old plan (failures charge double a graceful move).
	MigrationPenalty float64 `json:"migration_penalty,omitempty"`
	// AgingTau overrides the priority-aging time constant (seconds).
	AgingTau float64 `json:"aging_tau,omitempty"`
}

// Elastic reports whether the scenario asks for the elastic simulator.
func (s FleetScenario) Elastic() bool { return len(s.Events) > 0 }

// Resolve maps the request onto a fleet.Request and validates it.
func (r FleetPlanRequest) Resolve() (fleet.Request, error) {
	dev, net, err := r.Cluster.Platform.Resolve()
	if err != nil {
		return fleet.Request{}, err
	}
	jobs := make([]fleet.Job, len(r.Jobs))
	for i, j := range r.Jobs {
		m, err := j.Model.Resolve()
		if err != nil {
			return fleet.Request{}, fmt.Errorf("fleet: job %q: %w", j.Name, err)
		}
		// The size caps; the lower bounds are Validate's.
		for _, c := range []struct {
			field  string
			v, max int
		}{{"mini_batch", j.MiniBatch, MaxMiniBatch}, {"max_b", j.MaxB, MaxMiniBatch}, {"max_nodes", j.MaxNodes, fleet.MaxNodes}} {
			if c.v > c.max {
				return fleet.Request{}, fmt.Errorf("fleet: job %q %s = %d exceeds the limit %d", j.Name, c.field, c.v, c.max)
			}
		}
		jobs[i] = fleet.Job{
			Name: j.Name, Model: m, MiniBatch: j.MiniBatch,
			Priority: j.Priority, Deadline: j.Deadline, MaxB: j.MaxB,
			MaxNodes: j.MaxNodes,
		}
	}
	policy := fleet.Policy(r.Policy)
	if policy == "" {
		// Spelled out so policy omitted and policy="planner-guided" share
		// one cache entry.
		policy = fleet.PlannerGuided
	}
	out := fleet.Request{
		Cluster: fleet.Cluster{
			Nodes: r.Cluster.Nodes, SpeedFactors: r.Cluster.SpeedFactors,
			Device: dev, Network: net, Scheduler: r.Cluster.Scheduler,
		},
		Jobs: jobs, Policy: policy,
	}
	if err := out.Validate(); err != nil {
		return fleet.Request{}, err
	}
	return out, nil
}

// Resolve maps the scenario onto a fleet.Scenario (classic trace) and
// validates it with fleet.Scenario.Validate, so a malformed or oversized
// trace is a 400 before any planning. Elastic scenarios (events present)
// must resolve through ResolveElastic, and the elastic-only knobs are
// rejected here rather than silently ignored — the strict-validation
// contract of every field in this codec.
func (s FleetScenario) Resolve() (fleet.Scenario, error) {
	if s.Elastic() {
		return fleet.Scenario{}, fmt.Errorf("fleet: scenario carries an elastic event trace; resolve it as elastic")
	}
	if s.Replan != "" || s.MigrationPenalty != 0 || s.AgingTau != 0 {
		return fleet.Scenario{}, fmt.Errorf("fleet: replan, migration_penalty and aging_tau apply only to elastic scenarios (set events)")
	}
	req, err := FleetPlanRequest{Cluster: s.Cluster, Jobs: s.Jobs, Policy: s.Policy}.Resolve()
	if err != nil {
		return fleet.Scenario{}, err
	}
	trace := make([]fleet.Arrival, len(s.Trace))
	for i, ev := range s.Trace {
		trace[i] = fleet.Arrival{At: ev.At, Job: ev.Job, Work: ev.Work}
	}
	out := fleet.Scenario{Cluster: req.Cluster, Jobs: req.Jobs, Policy: req.Policy, Trace: trace}
	if err := out.Validate(); err != nil {
		return fleet.Scenario{}, err
	}
	return out, nil
}

// resolveReplan spells out the default re-plan mode, so replan omitted and
// replan="incremental" share one cache entry; the fleet package validates
// the name.
func resolveReplan(r string) fleet.ReplanMode {
	if r == "" {
		return fleet.ReplanIncremental
	}
	return fleet.ReplanMode(r)
}

// ResolveElastic maps the scenario onto a fleet.ElasticScenario and
// validates it with fleet.ElasticScenario.Validate.
func (s FleetScenario) ResolveElastic() (fleet.ElasticScenario, error) {
	if len(s.Trace) > 0 && len(s.Events) > 0 {
		return fleet.ElasticScenario{}, fmt.Errorf("fleet: scenario sets both trace and events (use one)")
	}
	if len(s.Events) == 0 {
		return fleet.ElasticScenario{}, fmt.Errorf("fleet: elastic scenario has no events")
	}
	req, err := FleetPlanRequest{Cluster: s.Cluster, Jobs: s.Jobs, Policy: s.Policy}.Resolve()
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	events, err := ResolveFleetEvents(s.Events)
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	out := fleet.ElasticScenario{
		Cluster: req.Cluster, Jobs: req.Jobs, Policy: req.Policy,
		Events: events, Replan: resolveReplan(s.Replan),
		MigrationPenalty: s.MigrationPenalty, AgingTau: s.AgingTau,
	}
	if err := out.Validate(); err != nil {
		return fleet.ElasticScenario{}, err
	}
	return out, nil
}

// ResolveLive maps the scenario onto a live fleet-controller
// configuration: cluster, jobs, policy and the re-plan knobs, with no
// pre-recorded trace — the controller's events arrive later, batch by
// batch, over POST /v1/fleet/events. The request part is validated here;
// fleet.Allocator.NewElasticSim validates the re-plan knobs when the
// controller builds its simulation.
func (s FleetScenario) ResolveLive() (fleet.ElasticScenario, error) {
	if len(s.Trace) > 0 || len(s.Events) > 0 {
		return fleet.ElasticScenario{}, fmt.Errorf("fleet: a live controller scenario must not carry a trace (%d) or events (%d) — the controller ingests events over HTTP", len(s.Trace), len(s.Events))
	}
	req, err := FleetPlanRequest{Cluster: s.Cluster, Jobs: s.Jobs, Policy: s.Policy}.Resolve()
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	return fleet.ElasticScenario{
		Cluster: req.Cluster, Jobs: req.Jobs, Policy: req.Policy,
		Replan:           resolveReplan(s.Replan),
		MigrationPenalty: s.MigrationPenalty, AgingTau: s.AgingTau,
	}, nil
}

// ResolveFleetEvents maps wire events onto fleet events, rejecting unknown
// kinds. It is the single wire→fleet event path: ResolveElastic resolves
// scenario traces through it and the fleet controller resolves ingested
// batches through it, so both accept exactly the same event shapes. Field
// validation beyond the kind (targets, factors, prices) stays with the
// fleet package, which names the offending index either way.
func ResolveFleetEvents(refs []FleetEventRef) ([]fleet.Event, error) {
	events := make([]fleet.Event, len(refs))
	for i, ev := range refs {
		kind := fleet.EventKind(ev.Kind)
		switch kind {
		case "", fleet.EvArrival, fleet.EvNodeFail, fleet.EvNodeDrain, fleet.EvNodeJoin:
		default:
			return nil, fmt.Errorf("fleet: events[%d] has unknown kind %q", i, ev.Kind)
		}
		events[i] = fleet.Event{
			At: ev.At, Kind: kind, Job: ev.Job, Work: ev.Work,
			Node: ev.Node, Factor: ev.Factor, Class: ev.Class, Price: ev.Price,
		}
	}
	return events, nil
}

// NewFleetEventRefs encodes fleet events back onto the wire — the inverse
// of ResolveFleetEvents, used by the controller's event-log endpoint so a
// recorded log replays through the same codec it was ingested with.
func NewFleetEventRefs(events []fleet.Event) []FleetEventRef {
	refs := make([]FleetEventRef, len(events))
	for i, ev := range events {
		refs[i] = FleetEventRef{
			At: ev.At, Kind: string(ev.Kind), Job: ev.Job, Work: ev.Work,
			Node: ev.Node, Factor: ev.Factor, Class: ev.Class, Price: ev.Price,
		}
	}
	return refs
}

// NewFleetFinalShares returns shares as they stand: a fleet.FinalShare
// carries its own wire shape. bench/ (its golden generator) is its last
// caller; delete it with that call.
func NewFleetFinalShares(shares []fleet.FinalShare) []fleet.FinalShare { return shares }
