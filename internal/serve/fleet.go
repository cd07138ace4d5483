package serve

// Fleet-planning wire types: the /v1/fleet/plan request/response codec and
// the scenario format cmd/chimera-fleet reads. Like the rest of this
// package there is exactly one serialization path — the CLI's -json mode
// and the HTTP endpoint encode through the same New*Response constructors,
// so a served fleet plan is byte-identical to encoding the in-process
// chimera.PlanFleet result.

import (
	"fmt"
	"math"
	"strings"

	"chimera/internal/fleet"
	"chimera/internal/schedule"
)

// MaxFleetJobs bounds a fleet request's job list (the fleet package
// enforces the same bound; re-exported so the wire contract names it).
const MaxFleetJobs = fleet.MaxJobs

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

// MaxFleetEvents bounds a trace of either form — elastic events or classic
// arrivals, which replay as arrival events (the fleet package enforces the
// same bound; re-exported so the wire contract names it).
const MaxFleetEvents = fleet.MaxEvents

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

// resolveFleetPolicy maps the wire policy name onto the fleet package's.
func resolveFleetPolicy(p string) (fleet.Policy, error) {
	switch p {
	case "":
		return fleet.PlannerGuided, nil
	case string(fleet.PlannerGuided), string(fleet.EqualSplit):
		return fleet.Policy(p), nil
	default:
		return "", fmt.Errorf("fleet: unknown policy %q (have %s)", p, strings.Join(fleet.Policies(), ", "))
	}
}

// Resolve validates the request into a fleet.Request.
func (r FleetPlanRequest) Resolve() (fleet.Request, error) {
	var out fleet.Request
	if r.Cluster.Nodes < 2 || r.Cluster.Nodes > fleet.MaxNodes {
		return out, fmt.Errorf("fleet: cluster nodes must be in [2, %d], got %d", fleet.MaxNodes, r.Cluster.Nodes)
	}
	dev, net, err := r.Cluster.Platform.Resolve()
	if err != nil {
		return out, err
	}
	if n := len(r.Cluster.SpeedFactors); n != 0 {
		if n != r.Cluster.Nodes {
			return out, fmt.Errorf("fleet: speed_factors has %d entries, cluster has %d nodes (lengths must match)",
				n, r.Cluster.Nodes)
		}
		if err := validateSpeedFactors("fleet", r.Cluster.SpeedFactors, 0); err != nil {
			return out, err
		}
	}
	if s := r.Cluster.Scheduler; s != "" && s != "fixed" && s != "auto" {
		if _, err := schedule.SchedulerByName(s); err != nil {
			return out, fmt.Errorf("fleet: %w", err)
		}
	}
	if len(r.Jobs) == 0 {
		return out, fmt.Errorf("fleet: jobs list is empty")
	}
	if len(r.Jobs) > MaxFleetJobs {
		return out, fmt.Errorf("fleet: %d jobs exceed the limit %d", len(r.Jobs), MaxFleetJobs)
	}
	jobs := make([]fleet.Job, len(r.Jobs))
	for i, j := range r.Jobs {
		if j.Name == "" {
			return out, fmt.Errorf("fleet: jobs[%d] has no name", i)
		}
		m, err := j.Model.Resolve()
		if err != nil {
			return out, fmt.Errorf("fleet: job %q: %w", j.Name, err)
		}
		if j.MiniBatch < 1 || j.MiniBatch > MaxMiniBatch {
			return out, fmt.Errorf("fleet: job %q mini_batch must be in [1, %d], got %d", j.Name, MaxMiniBatch, j.MiniBatch)
		}
		if j.MaxB < 0 || j.MaxB > MaxMiniBatch {
			return out, fmt.Errorf("fleet: job %q max_b must be in [0, %d], got %d", j.Name, MaxMiniBatch, j.MaxB)
		}
		if j.MaxNodes < 0 || j.MaxNodes > fleet.MaxNodes {
			return out, fmt.Errorf("fleet: job %q max_nodes must be in [0, %d], got %d", j.Name, fleet.MaxNodes, j.MaxNodes)
		}
		if j.Priority < 0 || math.IsNaN(j.Priority) || math.IsInf(j.Priority, 0) {
			return out, fmt.Errorf("fleet: job %q priority must be finite and ≥ 0, got %g", j.Name, j.Priority)
		}
		if j.Deadline < 0 || math.IsNaN(j.Deadline) || math.IsInf(j.Deadline, 0) {
			return out, fmt.Errorf("fleet: job %q deadline must be finite and ≥ 0, got %g", j.Name, j.Deadline)
		}
		jobs[i] = fleet.Job{
			Name: j.Name, Model: m, MiniBatch: j.MiniBatch,
			Priority: j.Priority, Deadline: j.Deadline, MaxB: j.MaxB,
			MaxNodes: j.MaxNodes,
		}
	}
	policy, err := resolveFleetPolicy(r.Policy)
	if err != nil {
		return out, err
	}
	out = fleet.Request{
		Cluster: fleet.Cluster{
			Nodes: r.Cluster.Nodes, SpeedFactors: r.Cluster.SpeedFactors,
			Device: dev, Network: net, Scheduler: r.Cluster.Scheduler,
		},
		Jobs: jobs, Policy: policy,
	}
	// The fleet package re-checks its own invariants; running them here
	// keeps every rejection a 400 with the field named.
	if err := out.Validate(); err != nil {
		return fleet.Request{}, err
	}
	return out, nil
}

// Resolve validates the scenario into a fleet.Scenario (classic trace).
// Elastic scenarios (events present) must resolve through ResolveElastic,
// and the elastic-only knobs are rejected here rather than silently
// ignored — the strict-validation contract of every field in this codec.
// The trace is bounded like an event list, so an oversized one is a 400
// before any planning.
func (s FleetScenario) Resolve() (fleet.Scenario, error) {
	if s.Elastic() {
		return fleet.Scenario{}, fmt.Errorf("fleet: scenario carries an elastic event trace; resolve it as elastic")
	}
	if s.Replan != "" || s.MigrationPenalty != 0 || s.AgingTau != 0 {
		return fleet.Scenario{}, fmt.Errorf("fleet: replan, migration_penalty and aging_tau apply only to elastic scenarios (set events)")
	}
	if len(s.Trace) > MaxFleetEvents {
		return fleet.Scenario{}, fmt.Errorf("fleet: %d trace arrivals exceed the limit %d", len(s.Trace), MaxFleetEvents)
	}
	req, err := FleetPlanRequest{Cluster: s.Cluster, Jobs: s.Jobs, Policy: s.Policy}.Resolve()
	if err != nil {
		return fleet.Scenario{}, err
	}
	trace := make([]fleet.Arrival, len(s.Trace))
	for i, ev := range s.Trace {
		trace[i] = fleet.Arrival{At: ev.At, Job: ev.Job, Work: ev.Work}
	}
	return fleet.Scenario{Cluster: req.Cluster, Jobs: req.Jobs, Policy: req.Policy, Trace: trace}, nil
}

// resolveReplan maps the wire re-plan mode onto the fleet package's.
func resolveReplan(r string) (fleet.ReplanMode, error) {
	switch r {
	case "":
		return fleet.ReplanIncremental, nil
	case string(fleet.ReplanIncremental), string(fleet.ReplanFull):
		return fleet.ReplanMode(r), nil
	default:
		return "", fmt.Errorf("fleet: unknown replan mode %q (have %s)", r, strings.Join(fleet.ReplanModes(), ", "))
	}
}

// ResolveElastic validates the scenario into a fleet.ElasticScenario.
func (s FleetScenario) ResolveElastic() (fleet.ElasticScenario, error) {
	if len(s.Trace) > 0 && len(s.Events) > 0 {
		return fleet.ElasticScenario{}, fmt.Errorf("fleet: scenario sets both trace and events (use one)")
	}
	if len(s.Events) == 0 {
		return fleet.ElasticScenario{}, fmt.Errorf("fleet: elastic scenario has no events")
	}
	if len(s.Events) > MaxFleetEvents {
		return fleet.ElasticScenario{}, fmt.Errorf("fleet: %d events exceed the limit %d", len(s.Events), MaxFleetEvents)
	}
	req, err := FleetPlanRequest{Cluster: s.Cluster, Jobs: s.Jobs, Policy: s.Policy}.Resolve()
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	replan, err := resolveReplan(s.Replan)
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	events, err := ResolveFleetEvents(s.Events)
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	out := fleet.ElasticScenario{
		Cluster: req.Cluster, Jobs: req.Jobs, Policy: req.Policy,
		Events: events, Replan: replan,
		MigrationPenalty: s.MigrationPenalty, AgingTau: s.AgingTau,
	}
	// The fleet package re-checks its own invariants; running them here
	// keeps every rejection a 400 with the field named.
	if err := out.Validate(); err != nil {
		return fleet.ElasticScenario{}, err
	}
	return out, nil
}

// ResolveLive validates the scenario as a live fleet-controller
// configuration: cluster, jobs, policy and the re-plan knobs, with no
// pre-recorded trace — the controller's events arrive later, batch by
// batch, over POST /v1/fleet/events.
func (s FleetScenario) ResolveLive() (fleet.ElasticScenario, error) {
	if len(s.Trace) > 0 || len(s.Events) > 0 {
		return fleet.ElasticScenario{}, fmt.Errorf("fleet: a live controller scenario must not carry a trace (%d) or events (%d) — the controller ingests events over HTTP", len(s.Trace), len(s.Events))
	}
	req, err := FleetPlanRequest{Cluster: s.Cluster, Jobs: s.Jobs, Policy: s.Policy}.Resolve()
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	replan, err := resolveReplan(s.Replan)
	if err != nil {
		return fleet.ElasticScenario{}, err
	}
	return fleet.ElasticScenario{
		Cluster: req.Cluster, Jobs: req.Jobs, Policy: req.Policy,
		Replan:           replan,
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

// FleetJobAllocationJSON is one job's share on the wire.
type FleetJobAllocationJSON struct {
	Job      string  `json:"job"`
	Priority float64 `json:"priority"`
	// Nodes is the assigned node count; NodesUsed = W·D of the chosen
	// plan; NodeIDs the assigned nodes, fastest first.
	Nodes     int   `json:"nodes"`
	NodesUsed int   `json:"nodes_used"`
	NodeIDs   []int `json:"node_ids"`
	// StragglerFactor is the slowest used node's speed factor; the plan's
	// homogeneous throughput is divided by it (1 for list-scheduled plans,
	// whose predictions already pay the stragglers positionally).
	StragglerFactor float64 `json:"straggler_factor"`
	// Scheduler is the placement policy behind the chosen plan (absent for
	// the scheme's fixed placement).
	Scheduler string `json:"scheduler,omitempty"`
	// Plan is the §3.4 selection (absent when the share is infeasible).
	Plan               *PredictionJSON `json:"plan,omitempty"`
	Throughput         float64         `json:"throughput"`
	WeightedThroughput float64         `json:"weighted_throughput"`
}

// FleetPlanResponse is the /v1/fleet/plan reply (and chimera-fleet -json
// output): per-job shares in input order plus the fleet objective.
type FleetPlanResponse struct {
	Policy             string                   `json:"policy"`
	Nodes              int                      `json:"nodes"`
	NodesAllocated     int                      `json:"nodes_allocated"`
	NodesUsed          int                      `json:"nodes_used"`
	WeightedThroughput float64                  `json:"weighted_throughput"`
	Jobs               []FleetJobAllocationJSON `json:"jobs"`
}

// NewFleetPlanResponse encodes an allocation. The same function backs the
// service and chimera-fleet -json, so both emit identical bytes.
func NewFleetPlanResponse(a *fleet.Allocation) FleetPlanResponse {
	out := FleetPlanResponse{
		Policy: string(a.Policy), Nodes: a.Nodes,
		NodesAllocated: a.NodesAllocated, NodesUsed: a.NodesUsed,
		WeightedThroughput: a.WeightedThroughput,
		Jobs:               make([]FleetJobAllocationJSON, len(a.Jobs)),
	}
	for i, j := range a.Jobs {
		ja := FleetJobAllocationJSON{
			Job: j.Job, Priority: j.Priority,
			Nodes: j.Nodes, NodesUsed: j.NodesUsed, NodeIDs: j.NodeIDs,
			StragglerFactor:    j.StragglerFactor,
			Scheduler:          j.Scheduler,
			Throughput:         j.Throughput,
			WeightedThroughput: j.Weighted,
		}
		if j.Plan != nil {
			ja.Plan = &PredictionJSON{
				W: j.Plan.W, D: j.Plan.D, B: j.Plan.B, N: j.Plan.N, Recompute: j.Plan.Recompute,
				Cf: j.Plan.Cf, Cb: j.Plan.Cb, IterTime: j.Plan.IterTime, Throughput: j.Plan.Throughput,
				Scheduler: j.Plan.Scheduler,
			}
		}
		out.Jobs[i] = ja
	}
	return out
}

// FleetJobRunJSON is one trace arrival's fate on the wire.
type FleetJobRunJSON struct {
	Job            string  `json:"job"`
	Trace          int     `json:"trace"`
	ArriveAt       float64 `json:"arrive_at"`
	StartAt        float64 `json:"start_at"`
	DoneAt         float64 `json:"done_at"`
	Wait           float64 `json:"wait"`
	MissedDeadline bool    `json:"missed_deadline"`
}

// FleetSimResponse is chimera-fleet -json's simulation output.
type FleetSimResponse struct {
	Policy        string            `json:"policy"`
	Nodes         int               `json:"nodes"`
	Makespan      float64           `json:"makespan"`
	Utilization   float64           `json:"utilization"`
	MeanWait      float64           `json:"mean_wait"`
	Events        int               `json:"events"`
	Reallocations int               `json:"reallocations"`
	Jobs          []FleetJobRunJSON `json:"jobs"`
}

// NewFleetSimResponse encodes a fleet simulation result.
func NewFleetSimResponse(r *fleet.SimResult) FleetSimResponse {
	out := FleetSimResponse{
		Policy: string(r.Policy), Nodes: r.Nodes,
		Makespan: r.Makespan, Utilization: r.Utilization, MeanWait: r.MeanWait,
		Events: r.Events, Reallocations: r.Reallocations,
		Jobs: make([]FleetJobRunJSON, len(r.Jobs)),
	}
	for i, j := range r.Jobs {
		out.Jobs[i] = FleetJobRunJSON{
			Job: j.Job, Trace: j.Trace, ArriveAt: j.ArriveAt, StartAt: j.StartAt,
			DoneAt: j.DoneAt, Wait: j.Wait, MissedDeadline: j.MissedDeadline,
		}
	}
	return out
}

// FleetEventRecordJSON is one processed event of an elastic replay.
type FleetEventRecordJSON struct {
	At   float64 `json:"at"`
	Kind string  `json:"kind"`
	Job  string  `json:"job,omitempty"`
	// Trace is the arrival's (or churn event's) input index; Node the
	// churned node id (-1 for job events).
	Trace int `json:"trace"`
	Node  int `json:"node"`
}

// FleetElasticJobRunJSON is one arrival's fate under churn.
type FleetElasticJobRunJSON struct {
	Job            string  `json:"job"`
	Trace          int     `json:"trace"`
	ArriveAt       float64 `json:"arrive_at"`
	StartAt        float64 `json:"start_at"`
	DoneAt         float64 `json:"done_at"`
	Wait           float64 `json:"wait"`
	MissedDeadline bool    `json:"missed_deadline"`
	Restarts       int     `json:"restarts"`
	PenaltySeconds float64 `json:"penalty_seconds"`
}

// FleetFinalShareJSON is one resident instance's slice of the final
// allocation (node counts and plan, deliberately not node ids).
type FleetFinalShareJSON struct {
	Job        string  `json:"job"`
	Trace      int     `json:"trace"`
	Nodes      int     `json:"nodes"`
	W          int     `json:"w"`
	D          int     `json:"d"`
	B          int     `json:"b"`
	Throughput float64 `json:"throughput"`
	Weighted   float64 `json:"weighted"`
}

// FleetElasticResponse is the /v1/fleet/simulate reply for elastic
// scenarios (and chimera-fleet -json's elastic output).
type FleetElasticResponse struct {
	Policy         string  `json:"policy"`
	Replan         string  `json:"replan"`
	InitialNodes   int     `json:"initial_nodes"`
	FinalNodes     int     `json:"final_nodes"`
	Makespan       float64 `json:"makespan"`
	Utilization    float64 `json:"utilization"`
	MeanWait       float64 `json:"mean_wait"`
	Events         int     `json:"events"`
	Reallocations  int     `json:"reallocations"`
	JobsEvaluated  int     `json:"jobs_evaluated"`
	Fails          int     `json:"fails"`
	Drains         int     `json:"drains"`
	Joins          int     `json:"joins"`
	Migrations     int     `json:"migrations"`
	PenaltySeconds float64 `json:"penalty_seconds"`
	// SpotJoins counts joins of spot-class nodes; Cost is the integrated
	// pool price (Σ price·dt up to the makespan). Omitted when zero so
	// price-free scenarios keep their legacy encoding.
	SpotJoins int                      `json:"spot_joins,omitempty"`
	Cost      float64                  `json:"cost,omitempty"`
	Log       []FleetEventRecordJSON   `json:"log"`
	Jobs      []FleetElasticJobRunJSON `json:"jobs"`
	Final     []FleetFinalShareJSON    `json:"final"`
}

// NewFleetElasticResponse encodes an elastic replay. The same function
// backs the service and chimera-fleet -json, so both emit identical bytes.
func NewFleetElasticResponse(r *fleet.ElasticResult) FleetElasticResponse {
	out := FleetElasticResponse{
		Policy: string(r.Policy), Replan: string(r.Replan),
		InitialNodes: r.InitialNodes, FinalNodes: r.FinalNodes,
		Makespan: r.Makespan, Utilization: r.Utilization, MeanWait: r.MeanWait,
		Events: r.Events, Reallocations: r.Reallocations, JobsEvaluated: r.JobsEvaluated,
		Fails: r.Fails, Drains: r.Drains, Joins: r.Joins,
		Migrations: r.Migrations, PenaltySeconds: r.PenaltySeconds,
		SpotJoins: r.SpotJoins, Cost: r.Cost,
		Log:   NewFleetEventRecords(r.Log),
		Jobs:  make([]FleetElasticJobRunJSON, len(r.Jobs)),
		Final: NewFleetFinalShares(r.Final),
	}
	for i, run := range r.Jobs {
		out.Jobs[i] = FleetElasticJobRunJSON{
			Job: run.Job, Trace: run.Trace, ArriveAt: run.ArriveAt, StartAt: run.StartAt,
			DoneAt: run.DoneAt, Wait: run.Wait, MissedDeadline: run.MissedDeadline,
			Restarts: run.Restarts, PenaltySeconds: run.PenaltySeconds,
		}
	}
	return out
}

// NewFleetEventRecords encodes an elastic replay's processed-event log.
// Shared by NewFleetElasticResponse and the fleet controller, so a live
// controller's log bytes are directly comparable with a trace replay's.
func NewFleetEventRecords(log []fleet.EventRecord) []FleetEventRecordJSON {
	out := make([]FleetEventRecordJSON, len(log))
	for i, rec := range log {
		out[i] = FleetEventRecordJSON{At: rec.At, Kind: string(rec.Kind), Job: rec.Job, Trace: rec.Trace, Node: rec.Node}
	}
	return out
}

// NewFleetFinalShares encodes an allocation's resident shares. Shared by
// NewFleetElasticResponse and the fleet controller, so a live controller's
// current allocation bytes are directly comparable with a replay's final.
func NewFleetFinalShares(shares []fleet.FinalShare) []FleetFinalShareJSON {
	out := make([]FleetFinalShareJSON, len(shares))
	for i, fs := range shares {
		out[i] = FleetFinalShareJSON{
			Job: fs.Job, Trace: fs.Trace, Nodes: fs.Nodes,
			W: fs.W, D: fs.D, B: fs.B, Throughput: fs.Throughput, Weighted: fs.Weighted,
		}
	}
	return out
}
