package fleet

// Elastic fleet simulation: the cluster itself churns — nodes fail, drain,
// and join while jobs arrive and depart — and the allocator re-plans
// *incrementally* on every event, warm-starting from the previous
// allocation and only re-evaluating jobs whose node sets the event touched.
// A migration-cost term (restart penalty proportional to lost pipeline
// state) decides preempt-and-move vs. stay, and deadline-aware priority
// aging guarantees starved jobs eventually win quanta. The full-replan
// policy (re-run the static allocator from scratch at every event) is
// retained as the reference the benchmark gates against: incremental must
// reach the same final allocation at a fraction of the planning work.
//
// Everything is deterministic like the rest of the repo: events carry a
// total order (time, then kind — departures before failures before drains
// before joins before arrivals — then input index), every decision carries
// a total tie-break, and no step depends on the engine's pool size.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
	"chimera/internal/sim"
)

// EventKind names one elastic-trace event type.
type EventKind string

const (
	// EvArrival is a job instance entering the cluster with a fixed amount
	// of work (the classic trace event; an empty Kind means arrival).
	EvArrival EventKind = "arrival"
	// EvNodeFail abruptly removes a node: jobs running on it lose their
	// in-flight pipeline state and pay the full restart penalty.
	EvNodeFail EventKind = "node_fail"
	// EvNodeDrain gracefully removes a node: jobs running on it flush their
	// pipelines and migrate, paying half the restart penalty.
	EvNodeDrain EventKind = "node_drain"
	// EvNodeJoin adds a fresh node (ids are assigned sequentially after the
	// initial cluster); its optional speed factor defaults to 1.
	EvNodeJoin EventKind = "node_join"
	// EvDeparture is internal — a job instance completing — but appears in
	// the result's event log so tie-break order is observable.
	EvDeparture EventKind = "departure"
)

// kindRank is the total order of same-timestamp events: departures free
// nodes first, failures and drains shrink the pool before joins grow it,
// and arrivals plan last against the settled pool.
var kindRank = map[EventKind]int{EvDeparture: 0, EvNodeFail: 1, EvNodeDrain: 2, EvNodeJoin: 3, EvArrival: 4}

// ReplanMode selects how the elastic simulator re-plans on each event.
type ReplanMode string

const (
	// ReplanIncremental warm-starts from the previous allocation and only
	// re-evaluates jobs the event touched — the policy this package exists
	// for.
	ReplanIncremental ReplanMode = "incremental"
	// ReplanFull re-runs the static allocator from scratch at every event —
	// the reference the benchmark compares against.
	ReplanFull ReplanMode = "full"
)

// ReplanModes lists the supported re-plan mode names.
func ReplanModes() []string { return []string{string(ReplanIncremental), string(ReplanFull)} }

// MaxEvents bounds an elastic trace for the same reason.
const MaxEvents = 4096

// MaxResident bounds how many instances may be resident at once — the same
// MaxJobs contract the static allocator enforces per request, applied at
// replay time because arrivals of one job can stack. Without it a trace of
// same-instant arrivals grows every re-plan's needy set toward the event
// count and total work quadratically; with it, per-event planning work is
// bounded by MaxResident × pool size. Exceeding it is a replay-time error
// naming the arrival.
const MaxResident = MaxJobs

// DefaultAgingTau is the default priority-aging time constant in seconds: a
// starved job's effective priority doubles every tau of waiting. Jobs with
// a deadline age on min(tau, deadline/2) so deadline pressure accelerates
// aging.
const DefaultAgingTau = 600.0

// Node procurement classes for node_join events. Spot capacity is cheap but
// preemptible; on-demand capacity is stable. At equal speed the pool orders
// cheaper nodes first, so preemptible capacity is put to work while the
// stable paid nodes stay free longest — losing a spot node then strands the
// least state.
const (
	ClassOnDemand = "on-demand"
	ClassSpot     = "spot"
)

// Event is one entry of an elastic trace. Exactly the fields of its kind
// may be set: arrivals carry Job and Work, node_fail/node_drain carry Node,
// node_join may carry Factor, Class and Price.
type Event struct {
	// At is the event time in seconds (≥ 0).
	At float64
	// Kind is the event type; empty means arrival.
	Kind EventKind
	// Job names an entry of the scenario's job list (arrivals).
	Job string
	// Work is the number of sequences the arriving instance must process.
	Work float64
	// Node is the failing or draining node's id.
	Node int
	// Factor is the joining node's speed factor (0 = nominal 1.0).
	Factor float64
	// Class is the joining node's procurement class: ClassOnDemand (the ""
	// default) or ClassSpot. The omitempty tag keeps the encoding of legacy
	// traces — and therefore every cache key derived from one — unchanged.
	Class string `json:",omitempty"`
	// Price is the joining node's cost rate (price units per second, ≥ 0);
	// the simulator integrates Σ price over the present pool into the
	// result's Cost. Initial cluster nodes are free (price 0).
	Price float64 `json:",omitempty"`
}

// kind returns the event's effective kind.
func (e Event) kind() EventKind {
	if e.Kind == "" {
		return EvArrival
	}
	return e.Kind
}

// ElasticScenario is one elastic fleet-simulation problem: a cluster, the
// job vocabulary, an allocation policy, and an event trace that mixes job
// arrivals with node churn.
type ElasticScenario struct {
	Cluster Cluster
	Jobs    []Job
	Policy  Policy
	Events  []Event
	// Replan selects incremental (default) or full re-planning. Equal-split
	// scenarios always re-split the whole pool — effectively full — and the
	// result's Replan field reports that.
	Replan ReplanMode
	// MigrationPenalty is the restart cost in seconds per pipeline stage of
	// the restarting job's old plan: a preempted or migrated pipeline must
	// drain and refill D stages of in-flight micro-batch state. Failures
	// charge the full penalty (state is lost); drains and voluntary
	// migrations charge half (the pipeline flushes first). 0 disables
	// migration costs.
	MigrationPenalty float64
	// AgingTau overrides DefaultAgingTau (0 = default).
	AgingTau float64
}

func (sc ElasticScenario) replan() ReplanMode {
	if sc.Replan == "" {
		return ReplanIncremental
	}
	return sc.Replan
}

func (sc ElasticScenario) agingTau() float64 {
	if sc.AgingTau == 0 {
		return DefaultAgingTau
	}
	return sc.AgingTau
}

// Validate checks the scenario's structural invariants; SimulateElastic
// calls it, and surface layers call it too so errors name the field before
// any planning work starts.
func (sc ElasticScenario) Validate() error {
	if err := sc.validateConfig(); err != nil {
		return err
	}
	if len(sc.Events) == 0 {
		return fmt.Errorf("fleet: elastic scenario has an empty event trace")
	}
	if len(sc.Events) > MaxEvents {
		return fmt.Errorf("fleet: %d events exceed the limit %d", len(sc.Events), MaxEvents)
	}
	byName := make(map[string]bool, len(sc.Jobs))
	for _, j := range sc.Jobs {
		byName[j.Name] = true
	}
	arrivals, joins := 0, 0
	for i, ev := range sc.Events {
		if err := validateEvent(byName, "events", i, ev); err != nil {
			return err
		}
		switch ev.kind() {
		case EvArrival:
			arrivals++
		case EvNodeJoin:
			joins++
		}
	}
	if arrivals == 0 {
		return fmt.Errorf("fleet: elastic trace has no arrivals")
	}
	if total := sc.Cluster.Nodes + joins; total > MaxNodes {
		return fmt.Errorf("fleet: %d nodes after all joins exceed the limit %d", total, MaxNodes)
	}
	return nil
}

// validateConfig checks the event-independent part of the scenario: cluster,
// jobs, policy and the re-plan knobs. The live controller validates exactly
// this at construction — its event stream arrives later, batch by batch.
func (sc ElasticScenario) validateConfig() error {
	if err := (Request{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: sc.Policy}).Validate(); err != nil {
		return err
	}
	switch sc.replan() {
	case ReplanIncremental, ReplanFull:
	default:
		return fmt.Errorf("fleet: unknown replan mode %q (have %s, %s)", sc.Replan, ReplanIncremental, ReplanFull)
	}
	if sc.MigrationPenalty < 0 || math.IsNaN(sc.MigrationPenalty) || math.IsInf(sc.MigrationPenalty, 0) {
		return fmt.Errorf("fleet: migration penalty must be finite and ≥ 0, got %g", sc.MigrationPenalty)
	}
	if sc.AgingTau < 0 || math.IsNaN(sc.AgingTau) || math.IsInf(sc.AgingTau, 0) {
		return fmt.Errorf("fleet: aging tau must be finite and ≥ 0, got %g", sc.AgingTau)
	}
	return nil
}

// validateEvent checks one event's shape against the job vocabulary. Shared
// by the trace validators and the controller's live ingestion path, so all
// reject a malformed event with the same message (where[i] names the event
// in its container: events or a classic trace by index, a live batch by
// position).
func validateEvent[V any](byName map[string]V, where string, i int, ev Event) error {
	if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
		return fmt.Errorf("fleet: %s[%d] time must be finite and ≥ 0, got %g", where, i, ev.At)
	}
	switch ev.kind() {
	case EvArrival:
		if _, ok := byName[ev.Job]; !ok {
			return fmt.Errorf("fleet: %s[%d] names unknown job %q", where, i, ev.Job)
		}
		if !(ev.Work > 0) || math.IsInf(ev.Work, 0) {
			return fmt.Errorf("fleet: %s[%d] work must be positive and finite, got %g", where, i, ev.Work)
		}
		if ev.Node != 0 || ev.Factor != 0 || ev.Class != "" || ev.Price != 0 {
			return fmt.Errorf("fleet: %s[%d] (arrival) must not set node, factor, class or price", where, i)
		}
	case EvNodeFail, EvNodeDrain:
		if ev.Node < 0 {
			return fmt.Errorf("fleet: %s[%d] (%s) node must be ≥ 0, got %d", where, i, ev.kind(), ev.Node)
		}
		if ev.Job != "" || ev.Work != 0 || ev.Factor != 0 || ev.Class != "" || ev.Price != 0 {
			return fmt.Errorf("fleet: %s[%d] (%s) must set only node", where, i, ev.kind())
		}
	case EvNodeJoin:
		if ev.Factor != 0 {
			if err := sim.CheckSpeedFactors("factor", ev.Factor); err != nil {
				return fmt.Errorf("fleet: %s[%d] (node_join) %w", where, i, err)
			}
		}
		switch ev.Class {
		case "", ClassOnDemand, ClassSpot:
		default:
			return fmt.Errorf("fleet: %s[%d] (node_join) unknown class %q (have %s, %s)",
				where, i, ev.Class, ClassOnDemand, ClassSpot)
		}
		if ev.Price < 0 || math.IsNaN(ev.Price) || math.IsInf(ev.Price, 0) {
			return fmt.Errorf("fleet: %s[%d] (node_join) price must be finite and ≥ 0, got %g", where, i, ev.Price)
		}
		if ev.Job != "" || ev.Work != 0 || ev.Node != 0 {
			return fmt.Errorf("fleet: %s[%d] (node_join) may set only factor, class and price", where, i)
		}
	default:
		return fmt.Errorf("fleet: %s[%d] has unknown kind %q", where, i, ev.Kind)
	}
	return nil
}

// EventRecord is one processed event in the result's log — the observable
// record of the simulator's total event order.
type EventRecord struct {
	At   float64   `json:"at"`
	Kind EventKind `json:"kind"`
	// Job and Trace identify the instance (arrivals and departures);
	// Trace is the event's input index for churn events.
	Job   string `json:"job,omitempty"`
	Trace int    `json:"trace"`
	// Node is the churned node id (-1 for job events).
	Node int `json:"node"`
}

// ElasticJobRun reports one arrival's fate, including churn damage.
type ElasticJobRun struct {
	Job   string `json:"job"`
	Trace int    `json:"trace"`
	// ArriveAt, StartAt and DoneAt are absolute times; Wait is
	// StartAt − ArriveAt. StartAt/DoneAt are -1 until they happen.
	ArriveAt float64 `json:"arrive_at"`
	StartAt  float64 `json:"start_at"`
	DoneAt   float64 `json:"done_at"`
	Wait     float64 `json:"wait"`
	// MissedDeadline is set when the job declares a deadline and
	// DoneAt − ArriveAt exceeds it.
	MissedDeadline bool `json:"missed_deadline"`
	// Restarts counts the instance's plan changes while running (forced by
	// churn or chosen by the migration rule); PenaltySeconds is the restart
	// debt it paid for them.
	Restarts       int     `json:"restarts"`
	PenaltySeconds float64 `json:"penalty_seconds"`
}

// FinalShare is one resident instance's slice of the final allocation —
// the snapshot taken right after the last trace event's re-plan. It
// deliberately carries node counts and plans, not node ids: on equal-speed
// nodes identity is irrelevant, and the benchmark's incremental-vs-full
// equality gate compares exactly this.
type FinalShare struct {
	Job        string  `json:"job"`
	Trace      int     `json:"trace"`
	Nodes      int     `json:"nodes"`
	W          int     `json:"w"`
	D          int     `json:"d"`
	B          int     `json:"b"`
	Throughput float64 `json:"throughput"`
	Weighted   float64 `json:"weighted"`
}

// ElasticResult is the outcome of replaying one elastic trace: the elastic
// /v1/fleet/simulate reply and chimera-fleet -json's output as it stands.
type ElasticResult struct {
	Policy Policy     `json:"policy"`
	Replan ReplanMode `json:"replan"`
	// InitialNodes and FinalNodes bracket the pool size across churn.
	InitialNodes int `json:"initial_nodes"`
	FinalNodes   int `json:"final_nodes"`
	// Makespan is the time the last instance departs; Utilization is
	// productive node-seconds over the integral of pool size over time
	// (restart debt counts as idle — churn damage shows up here).
	Makespan    float64 `json:"makespan"`
	Utilization float64 `json:"utilization"`
	MeanWait    float64 `json:"mean_wait"`
	// Events counts processed events including departures; Reallocations
	// how many re-plans ran; JobsEvaluated the total job evaluations the
	// re-plans performed (the work measure incremental mode minimizes).
	Events        int `json:"events"`
	Reallocations int `json:"reallocations"`
	JobsEvaluated int `json:"jobs_evaluated"`
	// Churn counters.
	Fails  int `json:"fails"`
	Drains int `json:"drains"`
	Joins  int `json:"joins"`
	// Migrations counts instance restarts (forced and voluntary);
	// PenaltySeconds the total restart debt charged.
	Migrations     int     `json:"migrations"`
	PenaltySeconds float64 `json:"penalty_seconds"`
	// SpotJoins counts the joins that carried the spot class
	// (SpotJoins ≤ Joins). Cost is the integral of Σ price over the present
	// pool up to the makespan (like Utilization's denominator, snapshotted
	// at the last departure so trailing churn cannot inflate the bill). Cost
	// is zero unless the trace joins priced nodes — initial cluster capacity
	// is free. Both are omitted when zero, so price-free scenarios keep their
	// pre-pricing encoding.
	SpotJoins int     `json:"spot_joins,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	// Log records every processed event in execution order — the pinned
	// total tie-break order (departures, fails, drains, joins, arrivals).
	Log []EventRecord `json:"log"`
	// Jobs reports every arrival in trace order; Final the allocation in
	// effect right after the last trace event.
	Jobs  []ElasticJobRun `json:"jobs"`
	Final []FinalShare    `json:"final"`
}

// SimulateElasticOn replays an elastic scenario on e (nil selects the
// shared default engine): NewAllocator(e).SimulateElastic. bench/ is its
// last caller; delete it with that call.
func SimulateElasticOn(e *engine.Engine, sc ElasticScenario) (*ElasticResult, error) {
	return NewAllocator(e).SimulateElastic(sc)
}

// einstance is one resident job instance during an elastic replay.
type einstance struct {
	trace     int
	job       Job
	remaining float64
	// debt is restart penalty seconds still to pay before progress resumes
	// (the instance holds its nodes but produces nothing).
	debt float64
	rate float64
	// share is the instance's nodes, trimmed to the even prefix its plan
	// actually drives (idle nodes return to the free pool at re-plan time).
	share  []node
	plan   *perfmodel.Prediction
	factor float64
	// curve is the job's plan curve, owned by the simulation and shared by
	// every instance of the job (and by forks).
	curve *planCurve
	// needy marks the instance for re-planning this round; failed marks a
	// forced restart caused by node_fail (full penalty instead of half).
	needy  bool
	failed bool
	// starvedSince anchors priority aging: the time the instance last lost
	// (or never had) a feasible allocation; -1 while running.
	starvedSince float64
	started      bool
}

// effPriority is the instance's aged effective priority at time now: base
// priority grown linearly with starvation age on the scenario's tau,
// accelerated for deadline jobs (tau' = min(tau, deadline/2)).
func (in *einstance) effPriority(now, tau float64) float64 {
	p := in.job.priority()
	if in.starvedSince < 0 {
		return p
	}
	if d := in.job.Deadline; d > 0 && d/2 < tau {
		tau = d / 2
	}
	return p * (1 + (now-in.starvedSince)/tau)
}

// sameAllocation reports whether a re-plan left an instance's execution
// unchanged: same plan shape and same nodes means no restart.
func sameAllocation(oldIDs []int, oldPlan *perfmodel.Prediction, in *einstance) bool {
	if !slices.EqualFunc(oldIDs, in.share, func(id int, n node) bool { return id == n.ID }) {
		return false
	}
	if oldPlan == nil || in.plan == nil {
		return oldPlan == in.plan
	}
	return oldPlan.W == in.plan.W && oldPlan.D == in.plan.D && oldPlan.B == in.plan.B
}

// SimulateElastic replays the event trace as a deterministic discrete-event
// simulation. On each event batch (all events due at one time, in kind
// order) the allocator re-plans — incrementally or from scratch per the
// scenario — and instances whose plan changed while running pay the
// migration penalty as restart debt before progressing again.
//
// The loop itself lives in ElasticSim (step.go): this driver sorts the
// trace into the total event order, feeds the stepper one same-time batch
// at a time with departure catch-up between batches, and runs the residual
// departures to completion. The controller drives the identical stepper
// live, which is what makes recorded-log replay bit-exact.
func (a *Allocator) SimulateElastic(sc ElasticScenario) (*ElasticResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}

	s := newElasticSim(a, sc)
	if err := s.stepAll(inOrder(sc.Events)); err != nil {
		return nil, err
	}
	// The final allocation is the one in effect right after the last trace
	// event's re-plan.
	s.res.Final = finalShares(s.active)
	if err := s.runToCompletion(); err != nil {
		return nil, err
	}
	s.seal(s.res, len(sc.Events))
	s.res.Cost = s.costAtMakespan
	return s.res, nil
}

// inOrder tags each event with its position and returns them in the pinned
// total order: time, then kind rank, then position.
func inOrder(events []Event) []indexedEvent {
	out := make([]indexedEvent, len(events))
	for i, ev := range events {
		out[i] = indexedEvent{ev: ev, idx: i}
	}
	sort.SliceStable(out, func(x, y int) bool {
		ex, ey := out[x].ev, out[y].ev
		if ex.At != ey.At {
			return ex.At < ey.At
		}
		return kindRank[ex.kind()] < kindRank[ey.kind()]
	})
	return out
}

// insertSorted places n into the fastest-first pool (factor, then price —
// cheap capacity works first — then id).
func insertSorted(pool []node, n node) []node {
	pos := sort.Search(len(pool), func(i int) bool {
		if pool[i].Factor != n.Factor {
			return pool[i].Factor > n.Factor
		}
		if pool[i].Price != n.Price {
			return pool[i].Price > n.Price
		}
		return pool[i].ID > n.ID
	})
	pool = append(pool, node{})
	copy(pool[pos+1:], pool[pos:])
	pool[pos] = n
	return pool
}

// freeNodes returns present minus every resident instance's share,
// fastest-first.
func (s *ElasticSim) freeNodes() []node {
	assigned := make([]bool, s.nextID) // node ids are dense below nextID
	held := 0
	for _, in := range s.active {
		for _, n := range in.share {
			assigned[n.ID] = true
		}
		held += len(in.share)
	}
	free := make([]node, 0, len(s.present)-held)
	for _, n := range s.present {
		if !assigned[n.ID] {
			free = append(free, n)
		}
	}
	return free
}

// finalShares snapshots the allocation in effect (resident instances in
// arrival order).
func finalShares(active []*einstance) []FinalShare {
	out := make([]FinalShare, 0, len(active))
	for _, in := range active {
		fs := FinalShare{Job: in.job.Name, Trace: in.trace, Nodes: len(in.share)}
		if in.plan != nil {
			fs.W, fs.D, fs.B = in.plan.W, in.plan.D, in.plan.B
			fs.Throughput = in.rate
			fs.Weighted = in.job.priority() * in.rate
		}
		out = append(out, fs)
	}
	return out
}

// applyShare installs a (possibly oversized) share on an instance: the
// share is trimmed to the even prefix the best plan drives, and rate, plan
// and straggler factor refresh from it.
func (a *Allocator) applyShare(in *einstance, share []node) error {
	v, err := a.jobValue(in.curve, share)
	if err != nil {
		return err
	}
	if v.pred == nil {
		in.share = nil
		in.plan, in.rate, in.factor = nil, 0, 1
		return nil
	}
	in.share = share[:v.used:v.used]
	in.plan, in.rate, in.factor = v.pred, v.tp, v.factor
	return nil
}

// replan re-plans after an event batch and settles the consequences:
// restart penalties for changed running instances, start times, starvation
// anchors.
func (s *ElasticSim) replan() error {
	if len(s.active) == 0 {
		return nil
	}
	res := s.res
	defer s.a.observeReplan(res, res.JobsEvaluated)()
	res.Reallocations++

	// Snapshot the pre-replan execution state for restart detection; instance
	// i's node ids are oldIDs[idEnd[i-1]:idEnd[i]].
	oldIDs := make([]int, 0, len(s.present))
	idEnd := make([]int, len(s.active))
	oldPlans := make([]*perfmodel.Prediction, len(s.active))
	oldRates := make([]float64, len(s.active))
	for i, in := range s.active {
		for _, n := range in.share {
			oldIDs = append(oldIDs, n.ID)
		}
		idEnd[i] = len(oldIDs)
		oldPlans[i] = in.plan
		oldRates[i] = in.rate
	}

	full := res.Policy == EqualSplit || s.sc.replan() == ReplanFull
	var err error
	switch {
	case s.replanWith != nil:
		err = s.replanWith(s, full)
	case full:
		err = s.replanFull()
	default:
		err = s.replanIncremental()
	}
	if err != nil {
		return err
	}

	// Settle: penalties, starts, starvation anchors.
	idStart := 0
	for i, in := range s.active {
		run := s.runs[in.trace]
		ids := oldIDs[idStart:idEnd[i]]
		idStart = idEnd[i]
		if oldRates[i] > 0 && !sameAllocation(ids, oldPlans[i], in) {
			pen := s.sc.MigrationPenalty * float64(oldPlans[i].D)
			if !in.failed {
				pen /= 2 // graceful: the pipeline flushes instead of discarding
			}
			in.debt += pen
			res.Migrations++
			res.PenaltySeconds += pen
			run.Restarts++
			run.PenaltySeconds += pen
		}
		in.failed = false
		in.needy = false
		if in.rate > 0 {
			if !in.started {
				in.started = true
				run.StartAt = s.now
				run.Wait = s.now - run.ArriveAt
			}
			in.starvedSince = -1
		} else if in.starvedSince < 0 {
			in.starvedSince = s.now
		}
	}
	return nil
}

// bidders lines the instances up for greedyGrow at their aged priorities.
func (s *ElasticSim) bidders(ins []*einstance) []bidder {
	bids := make([]bidder, len(ins))
	for i, in := range ins {
		bids[i] = bidder{curve: in.curve, prio: in.effPriority(s.now, s.tau)}
	}
	return bids
}

// replanFull re-runs the static policy from scratch over every resident
// instance — the reference re-planner.
func (s *ElasticSim) replanFull() error {
	shares, err := s.a.split(s.res.Policy, s.bidders(s.active), s.present, &s.res.JobsEvaluated)
	if err != nil {
		return err
	}
	for i, in := range s.active {
		if err := s.a.applyShare(in, shares[i]); err != nil {
			return err
		}
	}
	return nil
}

// replanIncremental is the warm-started re-planner: instances untouched by
// the event batch keep their shares and plans verbatim; only needy
// instances (new arrivals, churn-touched, starved) re-plan, growing from
// their surviving nodes over the free pool. Two follow-up passes implement
// the elastic policies:
//
//   - preempt-and-move vs. stay: running untouched instances may extend
//     into leftover free nodes, but only when the throughput gain over the
//     instance's remaining runtime exceeds the migration penalty it must
//     pay to restart on the larger share;
//   - priority aging: an instance still starved after the greedy may evict
//     quanta from a running instance once its aged priority makes the swap
//     a strict improvement of the weighted objective.
func (s *ElasticSim) replanIncremental() error {
	var needy []*einstance
	for _, in := range s.active {
		if in.needy || in.rate <= 0 {
			needy = append(needy, in)
		}
	}
	if len(needy) > 0 {
		bases := make([][]node, len(needy))
		for i, in := range needy {
			bases[i] = in.share
		}
		shares, _, err := s.a.greedyGrow(s.bidders(needy), bases, s.freeNodes(), &s.res.JobsEvaluated)
		if err != nil {
			return err
		}
		for i, in := range needy {
			if err := s.a.applyShare(in, shares[i]); err != nil {
				return err
			}
		}
	}
	if err := s.extendRunning(); err != nil {
		return err
	}
	return s.preemptForStarved()
}

// extendRunning offers leftover free nodes to running instances, one pass
// in arrival order. Growing a pipeline is a restart, so an extension is
// taken only when it pays for itself: extra sequences over the instance's
// remaining runtime at the new rate must exceed the sequences lost to the
// restart debt (Δtp · remaining/tp_new > penalty · tp_new). With a zero
// migration penalty this reduces to plain greedy growth. Each instance is
// one scan of its share and one breakpoint search into free (see ahead).
func (s *ElasticSim) extendRunning() error {
	free := s.freeNodes()
	if len(free) < Quantum {
		return nil
	}
	var l nodeList
	l.prepare(free)
	hits := 0
	defer func() { s.a.curveHits.Add(uint64(hits)) }()
	for _, in := range s.active {
		if in.rate <= 0 || len(free) < Quantum {
			continue
		}
		st := prefixScan{hits: &hits}
		if err := s.a.scan(in.curve, &st, in.share); err != nil {
			return err
		}
		s.res.JobsEvaluated++
		bestK, bestNet := 0, 0.0
		err := s.a.ahead(in.curve, &st, &l, 0, func(k int, v jobValue) {
			if v.tp <= in.rate {
				return
			}
			pen := s.sc.MigrationPenalty * float64(in.plan.D) / 2
			if net := (v.tp-in.rate)*(in.remaining/v.tp) - pen*v.tp; net > bestNet {
				bestK, bestNet = k, net
			}
		})
		if err != nil {
			return err
		}
		if bestK == 0 {
			continue
		}
		if err := s.a.applyShare(in, slices.Concat(in.share, free[:bestK*Quantum])); err != nil {
			return err
		}
		free = s.freeNodes()
		l.prepare(free)
	}
	return nil
}

// preemptForStarved lets aged starved instances evict quanta from running
// ones. For each starved instance (arrival order) every (donor, quanta)
// candidate is scored by the aged objective change
// eff_s·tp_s(new) − eff_d·(tp_d(old) − tp_d(shrunk)); the best strictly
// positive candidate wins (ties: lower donor trace index, then fewer
// quanta), the donor pays the migration penalty through the usual restart
// diff, and aging guarantees a starved job's side of the comparison grows
// without bound — it eventually wins quanta.
//
// The free pool and each donor's shrink values, node table and uniform tail
// are kept until a move is applied. A donor releases the tail of its share,
// so candidate k puts the starved side on its share and free plus
// share[n−kQ:], and one ahead search prices it: one table lookup per starved
// breakpoint it reaches, never a walk of the released nodes. While the
// released nodes are all of one speed, each search extends the last, and
// only the k that reach a new starved breakpoint are priced — every
// candidate still counts in JobsEvaluated.
func (s *ElasticSim) preemptForStarved() error {
	var (
		free []node
		// shrink[at[i]+j] is resident i's throughput on the first points[j]
		// nodes of its share, lists[i] its share prepared for ahead and
		// tail[i] where the share's uniform tail starts; at[i] < 0 until it
		// has been scanned as a donor.
		shrink   []float64
		at, tail []int
		lists    []nodeList
		fresh    bool // free, shrink, at, tail and lists reflect the current shares
		hits     int
	)
	defer func() { s.a.curveHits.Add(uint64(hits)) }()
	for _, in := range s.active {
		if in.rate > 0 {
			continue
		}
		if at == nil {
			at, tail, lists = make([]int, len(s.active)), make([]int, len(s.active)), make([]nodeList, len(s.active))
			shrink = make([]float64, 0, len(s.present)/Quantum)
		}
		if !fresh {
			free, shrink, fresh = s.freeNodes(), shrink[:0], true
			for i := range at {
				at[i] = -1
			}
		}
		base := prefixScan{hits: &hits}
		if err := s.a.scan(in.curve, &base, in.share); err != nil {
			return err
		}
		if err := s.a.scan(in.curve, &base, free); err != nil {
			return err
		}
		effS := in.effPriority(s.now, s.tau)
		var donor *einstance
		bestK, bestNet := 0, 0.0
		for di, d := range s.active {
			if d == in || d.rate <= 0 || len(d.share) < Quantum {
				continue
			}
			n, points := len(d.share), d.curve.points
			if at[di] < 0 {
				at[di] = len(shrink)
				st := prefixScan{hits: &hits}
				for _, p := range points {
					if p > n {
						break
					}
					if err := s.a.scan(d.curve, &st, d.share[st.n:p]); err != nil {
						return err
					}
					shrink = append(shrink, st.best.tp)
				}
				lists[di].prepare(d.share)
				for tail[di] = n - 1; tail[di] > 0 && d.share[tail[di]-1].Factor == d.share[n-1].Factor; tail[di]-- {
				}
			}
			s.res.JobsEvaluated += 1 + n/Quantum // the donor and each candidate
			effD := d.effPriority(s.now, s.tau)
			cand := base.fork()
			for k := 1; k <= n/Quantum; {
				keep := n - k*Quantum
				if keep < tail[di] {
					cand = base.fork() // the released nodes mix speeds: reprice from the base
				}
				if err := s.a.ahead(in.curve, &cand, &lists[di], keep, func(int, jobValue) {}); err != nil {
					return err
				}
				if cand.best.pred != nil {
					loss := d.rate
					if j := sort.SearchInts(points, keep+1) - 1; j >= 0 {
						loss -= shrink[at[di]+j]
					}
					// Strictly-greater replacement: candidates are priced in
					// (donor arrival order, quanta ascending), so equal nets
					// keep the earliest donor and the smallest eviction.
					if net := effS*cand.best.tp - effD*loss; net > bestNet {
						donor, bestK, bestNet = d, k, net
					}
				}
				// The starved side changes next where it reaches a new
				// breakpoint, or at k+1 if that releases a node outside the
				// share's uniform tail; in between it ties k at a larger loss.
				next := math.MaxInt
				if cand.next < len(in.curve.points) {
					next = (in.curve.points[cand.next] - base.n + Quantum - 1) / Quantum
				}
				if keep-Quantum < tail[di] {
					next = k + 1
				}
				k = next
			}
		}
		if donor == nil {
			continue
		}
		keep := len(donor.share) - bestK*Quantum
		grown := slices.Concat(in.share, free, donor.share[keep:])
		if err := s.a.applyShare(donor, donor.share[:keep:keep]); err != nil {
			return err
		}
		if err := s.a.applyShare(in, grown); err != nil {
			return err
		}
		fresh = false
	}
	return nil
}
