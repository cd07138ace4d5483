package fleet

// Elastic fleet simulation: the cluster itself churns — nodes fail, drain,
// and join while jobs arrive and depart — and the allocator re-plans
// *incrementally* on every event, warm-starting from the previous
// allocation and only re-evaluating jobs whose node sets the event touched.
// A migration-cost term (restart penalty proportional to lost pipeline
// state) decides preempt-and-move vs. stay, and deadline-aware priority
// aging guarantees starved jobs eventually win quanta. The full-replan
// policy (re-run the static allocator from scratch at every event) is
// retained as the reference TestElasticIncrementalMatchesFull gates against:
// incremental must reach the same final allocation at a fraction of the
// planning work.
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
	"sync"

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
	// the reference TestElasticIncrementalMatchesFull compares against.
	ReplanFull ReplanMode = "full"
)

// ReplanModes lists the supported re-plan mode names.
func ReplanModes() []string { return []string{string(ReplanIncremental), string(ReplanFull)} }

// MaxEvents bounds one trace's events, so one scenario cannot provoke
// unbounded replay work: ElasticScenario.Validate and Scenario.Validate
// refuse a longer trace. A live sim counts every event it has ingested
// against it (Ingest refuses a batch that would take EventCount past it),
// so it also caps how long a controller can live.
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
	index := jobIndex(sc.Jobs)
	arrivals, joins := 0, 0
	for i, ev := range sc.Events {
		if err := validateEvent(index, "events", i, ev); err != nil {
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

// jobIndex maps each job's name to its position — the one name lookup of
// the trace validators and of ElasticSim.
func jobIndex(jobs []Job) map[string]int {
	index := make(map[string]int, len(jobs))
	for i, j := range jobs {
		index[j.Name] = i
	}
	return index
}

// validateEvent checks one event's shape against the job vocabulary's index.
// Shared by the trace validators and the controller's live ingestion path,
// so all reject a malformed event with the same message (where[i] names the
// event in its container: events or a classic trace by index, a live batch
// by position).
func validateEvent(index map[string]int, where string, i int, ev Event) error {
	if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
		return fmt.Errorf("fleet: %s[%d] time must be finite and ≥ 0, got %g", where, i, ev.At)
	}
	switch ev.kind() {
	case EvArrival:
		if _, ok := index[ev.Job]; !ok {
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
// nodes identity is irrelevant, and TestElasticIncrementalMatchesFull's
// incremental-vs-full equality gate compares exactly this.
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
	// run is the instance's one record: its job's name, its trace index, and
	// StartAt ≥ 0 once it has started. It moves to ElasticSim.done on
	// departure.
	run ElasticJobRun
	// job indexes the sim's job table: jobs[job] and curves[job] are the
	// instance's job and plan curve.
	job       int
	remaining float64
	// debt is restart penalty seconds still to pay before progress resumes
	// (the instance holds its nodes but produces nothing).
	debt float64
	rate float64
	// share is the instance's nodes, trimmed to the even prefix its plan
	// actually drives (idle nodes return to the free pool at re-plan time).
	share []node
	plan  *perfmodel.Prediction
	// needy marks the instance for re-planning this round; failed marks a
	// forced restart caused by node_fail (full penalty instead of half).
	needy  bool
	failed bool
	// starvedSince anchors priority aging: the time the instance last lost
	// (or never had) a feasible allocation; -1 while running.
	starvedSince float64
}

// effPriority is the instance's aged effective priority now: base priority
// grown linearly with starvation age on the scenario's tau, accelerated for
// deadline jobs (tau' = min(tau, deadline/2)).
func (s *ElasticSim) effPriority(in *einstance) float64 {
	j, tau := &s.jobs[in.job], s.tau
	p := j.priority()
	if in.starvedSince < 0 {
		return p
	}
	if d := j.Deadline; d > 0 && d/2 < tau {
		tau = d / 2
	}
	return p * (1 + (s.now-in.starvedSince)/tau)
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
	s.res.Final = s.Shares()
	if err := s.runToCompletion(); err != nil {
		return nil, err
	}
	s.seal(s.res)
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
// fastest-first; it runs inside a re-plan. It marks the held ids in the
// scratch's table and the walk over present clears each mark it meets: every
// share is a subset of present (a node leaving the pool leaves its share at
// once), so the walk meets them all, and a call costs the pool, not the id
// range. Were a mark left behind, the whole table is cleared, so the pooled
// table is all false for whichever sim takes it next.
func (s *ElasticSim) freeNodes() []node {
	sc := s.scratch
	if len(sc.assigned) < s.nextID { // node ids are dense below nextID
		sc.assigned = make([]bool, 2*s.nextID)
	}
	held := 0
	for _, in := range s.active {
		for _, n := range in.share {
			sc.assigned[n.ID] = true
		}
		held += len(in.share)
	}
	free := make([]node, 0, len(s.present)-held)
	for _, n := range s.present {
		if sc.assigned[n.ID] {
			sc.assigned[n.ID] = false
			held--
		} else {
			free = append(free, n)
		}
	}
	if held != 0 {
		clear(sc.assigned)
	}
	return free
}

// applyShare installs a (possibly oversized) share on an instance: the
// share is trimmed to the even prefix the best plan drives, and rate and
// plan refresh from it.
func (s *ElasticSim) applyShare(in *einstance, share []node) error {
	v, err := s.a.jobValue(s.curves[in.job], share)
	if err != nil {
		return err
	}
	if v.pred == nil {
		in.share, in.plan, in.rate = nil, nil, 0
		return nil
	}
	in.share = share[:v.used:v.used]
	in.plan, in.rate = v.pred, v.tp
	return nil
}

// replanScratch is one re-plan's working tables: freeNodes' marks, the
// pre-replan snapshot and preemptForStarved's pricing tables. A re-plan takes
// one from scratchPool and puts it back on exit with its references into
// the sim, its shares and plans dropped, so nothing mutable is shared: a
// fork and the sim it came from each take their own. The tables are not
// kept on each sim because a controller's what-if forks would each grow a
// set of their own, and the live sim would hold its set between batches;
// pooled, a handful serve every re-plan of the process.
type replanScratch struct {
	// assigned marks held node ids for freeNodes, all false between calls.
	assigned []bool
	// The pre-replan snapshot for restart detection: instance i's node ids
	// are oldIDs[idEnd[i-1]:idEnd[i]], its plan and rate oldPlans[i] and
	// oldRates[i].
	oldIDs   []int
	idEnd    []int
	oldPlans []*perfmodel.Prediction
	oldRates []float64
	pre      preemption
}

var scratchPool = sync.Pool{New: func() any { return new(replanScratch) }}

// takeScratch lends s a pooled scratch for the re-plan about to run;
// putScratch returns it.
func (s *ElasticSim) takeScratch() {
	s.scratch = scratchPool.Get().(*replanScratch)
}

func (s *ElasticSim) putScratch() {
	sc := s.scratch
	s.scratch = nil
	clear(sc.oldPlans)
	sc.pre.release()
	scratchPool.Put(sc)
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
	s.takeScratch()
	defer s.putScratch()

	// Snapshot the pre-replan execution state for restart detection, each
	// table grown to size at once when the scratch is new.
	sc, n := s.scratch, len(s.active)
	oldIDs, idEnd := slices.Grow(sc.oldIDs[:0], len(s.present)), slices.Grow(sc.idEnd[:0], n)
	oldPlans, oldRates := slices.Grow(sc.oldPlans[:0], n), slices.Grow(sc.oldRates[:0], n)
	for _, in := range s.active {
		for _, n := range in.share {
			oldIDs = append(oldIDs, n.ID)
		}
		idEnd = append(idEnd, len(oldIDs))
		oldPlans = append(oldPlans, in.plan)
		oldRates = append(oldRates, in.rate)
	}
	sc.oldIDs, sc.idEnd, sc.oldPlans, sc.oldRates = oldIDs, idEnd, oldPlans, oldRates

	full := res.Replan == ReplanFull // newElasticSim folds equal-split in
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
		run := &in.run
		ids := oldIDs[idStart:idEnd[i]]
		idStart = idEnd[i]
		if oldRates[i] > 0 && !sameAllocation(ids, oldPlans[i], in) {
			pen := s.penalty * float64(oldPlans[i].D)
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
			if run.StartAt < 0 {
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
		bids[i] = bidder{curve: s.curves[in.job], prio: s.effPriority(in)}
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
		if err := s.applyShare(in, shares[i]); err != nil {
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
			if err := s.applyShare(in, shares[i]); err != nil {
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
		cv, st := s.curves[in.job], prefixScan{hits: &hits}
		if err := s.a.scan(cv, &st, in.share); err != nil {
			return err
		}
		s.res.JobsEvaluated++
		bestK, bestNet := 0, 0.0
		err := s.a.ahead(cv, &st, &l, 0, func(k int, v jobValue) {
			if v.tp <= in.rate {
				return
			}
			pen := s.penalty * float64(in.plan.D) / 2
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
		if err := s.applyShare(in, slices.Concat(in.share, free[:bestK*Quantum])); err != nil {
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
// positive candidate wins (ties: lower donor arrival index, then fewer
// quanta), the donor pays the migration penalty through the usual restart
// diff, and aging guarantees a starved job's side of the comparison grows
// without bound — it eventually wins quanta.
//
// Each side of a candidate is priced once per epoch — until a move is
// applied — not once per (starved instance, donor) pair; see preemption.
// Every candidate still counts in JobsEvaluated.
func (s *ElasticSim) preemptForStarved() error {
	p := &s.scratch.pre
	p.s, p.hits, p.fresh, p.donors = s, 0, false, p.donors[:0]
	defer func() { s.a.curveHits.Add(uint64(p.hits)) }()
	for i, in := range s.active {
		if in.rate > 0 {
			continue
		}
		if !p.fresh {
			if err := p.newEpoch(); err != nil {
				return err
			}
		}
		best, err := p.search(in)
		if err != nil {
			return err
		}
		if best.donor < 0 {
			continue
		}
		donor := s.active[best.donor]
		keep := len(donor.share) - best.k*Quantum
		grown := slices.Concat(in.share, p.free, donor.share[keep:])
		if err := s.applyShare(donor, donor.share[:keep:keep]); err != nil {
			return err
		}
		if err := s.applyShare(in, grown); err != nil {
			return err
		}
		p.donors[best.donor].reset()
		p.donors[i].reset()
		p.fresh = false
	}
	return nil
}

// preemption is one preemptForStarved call's pricing state. Its tables live
// in the re-plan's pooled scratch and are reused from call to call; what
// points into the sim is dropped when the scratch goes back (release).
//
// A donor releases the tail of its share. While the released nodes are all
// of its tail's speed f, the starved side is its job's scan of the free pool
// extended by k quanta of speed f, the same whichever donor releases them, so
// for each (f, k) only the donor losing the least, cheapest_f(k) =
// min eff_d·loss_d(k), can win. A starved instance holds no nodes (applyShare
// drops a share no plan fits), so its side depends on its job and the free
// pool alone: one scan of the free pool per job, extended once along the
// widest tail of each speed. The starved value is flat between the job's
// breakpoints while cheapest_f is nondecreasing in k (a minimum of
// nondecreasing losses over a shrinking donor set), so only the k that reach
// a new breakpoint are priced. Candidates whose released nodes mix speeds are
// priced per donor, at every k.
type preemption struct {
	s     *ElasticSim
	hits  int
	fresh bool // free, speeds and sides reflect the current shares
	free  []node
	// donors[i] is resident i's side of the candidates that evict from it,
	// kept until its share changes; cost holds their tables.
	donors []donorSide
	cost   []float64
	// speeds has one entry per donor tail speed, its cheapest table in
	// cheapest.
	speeds   []tailSpeed
	cheapest []cheapDonor
	// sides are the starved sides priced this epoch, their values in steps.
	sides []starvedSide
	steps []starvedStep
	// evals is what one search adds to JobsEvaluated: the donor and each of
	// its candidates, for every donor.
	evals int
}

// donorSide is a running instance as a donor: quanta > 0 once priced.
// cost[at+k−1] is eff_d·(rate − value on share[:n−kQ]), the aged throughput
// it loses by releasing k quanta (k = 1..quanta); the last ku of them lie in
// its share's uniform tail of speed f, speeds[speed] this epoch; list is the
// share prepared for ahead.
type donorSide struct {
	quanta, at, ku, speed int
	f                     float64
	list                  nodeList
}

// reset marks the side unpriced, keeping the list's table for reuse.
func (ds *donorSide) reset() { *ds = donorSide{list: ds.list} }

// tailSpeed is one donor tail speed: cheapest[at+k−1] for k = 1..top, where
// top is the widest tail's quanta and wide its donor.
type tailSpeed struct {
	f             float64
	at, top, wide int
}

// cheapDonor is the least cost of releasing k tail quanta of one speed and
// the earliest donor charging it.
type cheapDonor struct {
	cost  float64
	donor int
}

// starvedSide is a starved job's side of this epoch's candidates: base is
// its scan of the free pool, steps[at:end] its value after k tail quanta of
// speeds[speed].f at each k where that value rises.
type starvedSide struct {
	job     int
	base    prefixScan
	at, end int
}

type starvedStep struct {
	speed, k int
	tp       float64
}

// candidate is the best move of a search: evict k quanta from resident
// donor (−1: none yet) for an objective change of net.
type candidate struct {
	net      float64
	donor, k int
}

// offer keeps the better of c and (net, donor, k): a larger net, then the
// earlier donor, then fewer quanta — the order of a donor-major, quanta
// ascending walk that keeps the first of equal nets. Only a positive net
// wins.
func (c *candidate) offer(net float64, donor, k int) {
	if net > c.net || net == c.net && c.donor >= 0 && (donor < c.donor || donor == c.donor && k < c.k) {
		*c = candidate{net: net, donor: donor, k: k}
	}
}

// newEpoch refreshes what the last move invalidated: the free pool, the
// donors whose shares changed, the per-speed tables and the starved sides.
func (p *preemption) newEpoch() error {
	s := p.s
	if len(p.donors) == 0 { // the call's first epoch: size the tables
		p.donors = slices.Grow(p.donors, len(s.active))[:len(s.active)]
		for i := range p.donors {
			p.donors[i].reset()
		}
		p.sides, p.steps = slices.Grow(p.sides[:0], len(s.jobs)), slices.Grow(p.steps[:0], 2*len(s.jobs))
		p.cost, p.cheapest = slices.Grow(p.cost[:0], len(s.present)/Quantum), slices.Grow(p.cheapest[:0], len(s.present)/Quantum)
	}
	p.free, p.evals, p.fresh = s.freeNodes(), 0, true
	p.speeds, p.cheapest = p.speeds[:0], p.cheapest[:0]
	p.sides, p.steps = p.sides[:0], p.steps[:0]
	for i, d := range s.active {
		ds := &p.donors[i]
		if d.rate <= 0 || len(d.share) < Quantum {
			ds.reset()
			continue
		}
		if ds.quanta == 0 {
			if err := p.price(ds, d); err != nil {
				return err
			}
		}
		p.evals += 1 + ds.quanta
		if ds.ku == 0 {
			continue
		}
		ds.speed = slices.IndexFunc(p.speeds, func(t tailSpeed) bool { return t.f == ds.f })
		switch {
		case ds.speed < 0:
			ds.speed = len(p.speeds)
			p.speeds = append(p.speeds, tailSpeed{f: ds.f, top: ds.ku, wide: i})
		case ds.ku > p.speeds[ds.speed].top:
			p.speeds[ds.speed].top, p.speeds[ds.speed].wide = ds.ku, i
		}
	}
	for j := range p.speeds {
		t := &p.speeds[j]
		t.at = len(p.cheapest)
		for range t.top {
			p.cheapest = append(p.cheapest, cheapDonor{cost: math.Inf(1), donor: -1})
		}
	}
	for i := range p.donors {
		ds := &p.donors[i]
		if ds.ku == 0 {
			continue
		}
		at := p.speeds[ds.speed].at
		for k := 1; k <= ds.ku; k++ {
			if c := &p.cheapest[at+k-1]; p.cost[ds.at+k-1] < c.cost {
				c.cost, c.donor = p.cost[ds.at+k-1], i
			}
		}
	}
	return nil
}

// release drops what points into the sim — the sim, the free pool, the
// donors' shares and the starved sides' plans — keeping the tables.
func (p *preemption) release() {
	p.s, p.free = nil, nil
	for i := range p.donors {
		p.donors[i].list.nodes = nil
	}
	clear(p.sides[:cap(p.sides)])
}

// price fills d's donor side: one scan of its share, walked once up to each
// candidate's kept prefix.
func (p *preemption) price(ds *donorSide, d *einstance) error {
	n := len(d.share)
	ds.quanta, ds.at, ds.f = n/Quantum, len(p.cost), d.share[n-1].Factor
	tail := n - 1
	for tail > 0 && d.share[tail-1].Factor == ds.f {
		tail--
	}
	ds.ku = (n - tail) / Quantum
	ds.list.prepare(d.share)
	effD := p.s.effPriority(d)
	p.cost = slices.Grow(p.cost, ds.quanta)[:ds.at+ds.quanta]
	st := prefixScan{hits: &p.hits}
	for k := ds.quanta; k >= 1; k-- {
		keep := n - k*Quantum
		if err := p.s.a.scan(p.s.curves[d.job], &st, d.share[st.n:keep]); err != nil {
			return err
		}
		p.cost[ds.at+k-1] = effD * (d.rate - st.best.tp)
	}
	return nil
}

// side returns job's starved side for this epoch, pricing it on first use:
// the free pool scanned once, then extended along each speed's widest tail,
// one step per breakpoint reached.
func (p *preemption) side(job int) (*starvedSide, error) {
	for i := range p.sides {
		if p.sides[i].job == job {
			return &p.sides[i], nil
		}
	}
	cv := p.s.curves[job]
	sd := starvedSide{job: job, base: prefixScan{hits: &p.hits}, at: len(p.steps)}
	if err := p.s.a.scan(cv, &sd.base, p.free); err != nil {
		return nil, err
	}
	for j, t := range p.speeds {
		from := len(p.steps)
		// A step that does not raise the value ties an earlier k at a cost at
		// least as high: it never wins.
		add := func(k int, v jobValue) {
			switch n := len(p.steps); {
			case v.pred == nil:
			case n > from && p.steps[n-1].k == k:
				p.steps[n-1].tp = v.tp
			case n == from || p.steps[n-1].tp < v.tp:
				p.steps = append(p.steps, starvedStep{speed: j, k: k, tp: v.tp})
			}
		}
		add(1, sd.base.best)
		l := &p.donors[t.wide].list
		st := sd.base.fork()
		if err := p.s.a.ahead(cv, &st, l, len(l.nodes)-t.top*Quantum, add); err != nil {
			return nil, err
		}
	}
	sd.end = len(p.steps)
	p.sides = append(p.sides, sd)
	return &p.sides[len(p.sides)-1], nil
}

// search prices every candidate of one starved instance and returns the
// best.
func (p *preemption) search(in *einstance) (candidate, error) {
	best := candidate{donor: -1}
	sd, err := p.side(in.job)
	if err != nil {
		return best, err
	}
	p.s.res.JobsEvaluated += p.evals
	effS := p.s.effPriority(in)
	for _, st := range p.steps[sd.at:sd.end] {
		t := p.speeds[st.speed]
		c := p.cheapest[t.at+st.k-1]
		net := effS*st.tp - c.cost
		if net <= 0 || net < best.net {
			continue
		}
		// A dearer donor can round to the same net: the earliest one wins.
		donor := c.donor
		for i := range donor {
			if ds := &p.donors[i]; ds.ku >= st.k && ds.speed == st.speed && effS*st.tp-p.cost[ds.at+st.k-1] == net {
				donor = i
				break
			}
		}
		best.offer(net, donor, st.k)
	}
	for i := range p.donors {
		ds := &p.donors[i]
		n := len(ds.list.nodes)
		for k := ds.ku + 1; k <= ds.quanta; k++ {
			cand := sd.base.fork()
			if err := p.s.a.ahead(p.s.curves[in.job], &cand, &ds.list, n-k*Quantum, func(int, jobValue) {}); err != nil {
				return best, err
			}
			if cand.best.pred != nil {
				best.offer(effS*cand.best.tp-p.cost[ds.at+k-1], i, k)
			}
		}
	}
	return best, nil
}
