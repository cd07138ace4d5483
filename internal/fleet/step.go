package fleet

// Resumable elastic simulation. ElasticSim factors SimulateElastic's
// discrete-event loop into a step API so the same state machine can run in
// two modes:
//
//   - trace mode: SimulateElastic sorts a fixed trace into the total event
//     order and drives the stepper batch by batch to completion;
//   - live mode: the fleet controller constructs the sim without events
//     (NewElasticSim) and feeds batches as they actually happen (Ingest),
//     reading the allocation in effect between batches.
//
// Both modes execute the identical arithmetic in the identical order, which
// is the determinism contract the controller leans on: replaying a live
// sim's recorded event log through SimulateElastic reproduces its event
// records and final shares bit for bit (the live log is a prefix of the
// replay's — the replay goes on to retire the still-resident instances).
//
// Live batches must be strictly time-ordered *across* Ingest calls (any
// order within one call): the simulator re-plans once per distinct
// timestamp, and allowing a later batch at an already-processed time would
// split what replay merges into a single re-plan, breaking bit-equality.
//
// Fork supports what-if forecasting: a copy of the state written in place
// that shares the allocator and the per-job plan curves, so a fork pays only
// for plans nobody has needed before. Its histories start empty at the fork:
// no what-if reads the past.

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
)

// indexedEvent pairs an event with its trace index — the input position in
// trace mode, the ingestion-log position in live mode.
type indexedEvent struct {
	ev  Event
	idx int
}

// ElasticSim is the elastic simulator's resumable state machine. Not safe
// for concurrent use; the controller serializes access.
type ElasticSim struct {
	a      *Allocator
	sc     ElasticScenario
	byName map[string]Job
	// curves holds one plan curve per vocabulary job, built once and shared
	// with every fork: a plan any of them resolves is read by all by index.
	curves map[string]*planCurve
	tau    float64
	// replanWith, when non-nil, replaces the built-in re-planners — the seam
	// the oracle equivalence test drives the pre-curve search through.
	replanWith func(s *ElasticSim, full bool) error

	res *ElasticResult
	// done holds departed instances' records in departure order (a
	// resident's lives on its einstance); append-only, like res.Log.
	done []ElasticJobRun

	// The live pool, fastest-first; joins get sequential fresh ids.
	// presentPrice is Σ price over present — the integrand of res.Cost.
	present      []node
	nextID       int
	presentPrice float64
	// scratch is the pooled working tables of the re-plan in progress, nil
	// between re-plans (see replanScratch), so a fork never shares it.
	scratch *replanScratch

	active []*einstance // arrival order — the re-planners' input order

	now                      float64
	busySeconds, poolSeconds float64
	costSeconds              float64
	// makespan and the pool/cost integrals snapshot at each departure, so
	// churn events scheduled after the last instance departs cannot inflate
	// the reported makespan, dilute utilization, or grow the bill.
	makespan, poolAtMakespan, costAtMakespan float64

	// Live-mode bookkeeping: the append-only raw event log in applied
	// (sorted) order — replaying it through SimulateElastic is the
	// determinism anchor — and the newest applied batch time. A fork's log
	// starts empty; forked counts the events ingested before the fork, so
	// trace indices and the event limit continue from the live count.
	events    []Event
	forked    int
	lastBatch float64
	live      bool
}

// newElasticSim builds the stepper state shared by both modes. The scenario
// must already be validated (at least its config part).
func newElasticSim(a *Allocator, sc ElasticScenario) *ElasticSim {
	byName := make(map[string]Job, len(sc.Jobs))
	curves := make(map[string]*planCurve, len(sc.Jobs))
	for _, j := range sc.Jobs {
		byName[j.Name] = j
		curves[j.Name] = newPlanCurve(sc.Cluster, j)
	}
	res := &ElasticResult{
		Policy:       (Request{Policy: sc.Policy}).policy(),
		Replan:       sc.replan(),
		InitialNodes: sc.Cluster.Nodes,
	}
	// Equal-split has no warm-startable structure — every event re-splits
	// the whole pool — so the result reports the effective mode instead of
	// pretending the incremental path ran.
	if res.Policy == EqualSplit {
		res.Replan = ReplanFull
	}
	return &ElasticSim{
		a: a, sc: sc, byName: byName, curves: curves, tau: sc.agingTau(),
		res:     res,
		present: sortedPool(sc.Cluster),
		nextID:  sc.Cluster.Nodes,
	}
}

// NewElasticSim constructs a live, resumable elastic simulation: the
// scenario supplies the cluster, job vocabulary, policy and re-plan knobs;
// events arrive later through Ingest, batch by batch, as the fleet actually
// churns. This is the state machine behind the fleet controller.
func (a *Allocator) NewElasticSim(sc ElasticScenario) (*ElasticSim, error) {
	if err := sc.validateConfig(); err != nil {
		return nil, err
	}
	if len(sc.Events) != 0 {
		return nil, fmt.Errorf("fleet: a live elastic sim takes no pre-recorded events (got %d) — ingest them instead", len(sc.Events))
	}
	s := newElasticSim(a, sc)
	s.live = true
	return s, nil
}

// earliestDeparture is the earliest completion time over the resident
// instances under current rates and debts (+Inf when nothing can run).
func (s *ElasticSim) earliestDeparture() float64 {
	departAt := math.Inf(1)
	for _, in := range s.active {
		if in.rate > 0 {
			if at := s.now + in.debt + in.remaining/in.rate; at < departAt {
				departAt = at
			}
		}
	}
	return departAt
}

// stepBatch is one iteration of the discrete-event loop: advance time to t
// (paying restart debt before progress), retire instances departing exactly
// at t, apply the batch's events in their pre-sorted order, and re-plan
// once. Callers must have drained earlier departures first
// (advanceDepartures), so for a non-empty batch t is the batch's time.
func (s *ElasticSim) stepBatch(t float64, batch []indexedEvent) error {
	// Identify every instance departing at the step time before advancing
	// (the same expression that produced earliestDeparture, so float
	// equality is exact).
	departAt := s.earliestDeparture()
	var departing []*einstance
	if departAt <= t {
		for _, in := range s.active {
			if in.rate > 0 && s.now+in.debt+in.remaining/in.rate == departAt {
				departing = append(departing, in)
			}
		}
	}
	if t < s.now {
		t = s.now // float residue
	}
	dt := t - s.now
	if dt > 0 {
		s.poolSeconds += float64(len(s.present)) * dt
		s.costSeconds += s.presentPrice * dt
		for _, in := range s.active {
			if in.rate <= 0 {
				continue
			}
			d := dt
			if in.debt > 0 { // debt first: held nodes, no progress
				pay := math.Min(in.debt, d)
				in.debt -= pay
				d -= pay
			}
			if d > 0 {
				in.remaining -= d * in.rate
				s.busySeconds += d * float64(len(in.share))
			}
		}
	}
	s.now = t

	changed := false
	// 1) Departures, in arrival (= trace) order.
	for _, in := range departing {
		in.remaining = 0 // absorb float residue
		in.run.DoneAt = s.now
		if d := in.job.Deadline; d > 0 && s.now-in.run.ArriveAt > d {
			in.run.MissedDeadline = true
		}
		s.done = append(s.done, in.run)
		i := slices.Index(s.active, in)
		s.active = append(s.active[:i], s.active[i+1:]...)
		s.res.Events++
		s.res.Log = append(s.res.Log, EventRecord{At: s.now, Kind: EvDeparture, Job: in.job.Name, Trace: in.run.Trace, Node: -1})
		s.makespan, s.poolAtMakespan, s.costAtMakespan = s.now, s.poolSeconds, s.costSeconds
		changed = true
	}
	// 2) The batch's events, already in (time, kind, index) order.
	for _, ie := range batch {
		ev := ie.ev
		s.res.Events++
		changed = true
		switch ev.kind() {
		case EvArrival:
			if len(s.active) >= MaxResident {
				return fmt.Errorf("fleet: events[%d] would make %d instances resident, above the limit %d",
					ie.idx, len(s.active)+1, MaxResident)
			}
			s.active = append(s.active, &einstance{
				run: ElasticJobRun{Job: ev.Job, Trace: ie.idx, ArriveAt: ev.At, StartAt: -1, DoneAt: -1},
				job: s.byName[ev.Job], curve: s.curves[ev.Job], remaining: ev.Work,
				needy: true, starvedSince: s.now,
			})
			s.res.Log = append(s.res.Log, EventRecord{At: s.now, Kind: EvArrival, Job: ev.Job, Trace: ie.idx, Node: -1})
		case EvNodeFail, EvNodeDrain:
			isTarget := func(n node) bool { return n.ID == ev.Node }
			pos := slices.IndexFunc(s.present, isTarget)
			if pos < 0 {
				return fmt.Errorf("fleet: events[%d] %s targets absent node %d", ie.idx, ev.kind(), ev.Node)
			}
			s.presentPrice -= s.present[pos].Price
			s.present = append(s.present[:pos], s.present[pos+1:]...)
			for _, in := range s.active {
				if i := slices.IndexFunc(in.share, isTarget); i >= 0 {
					in.share = append(in.share[:i:i], in.share[i+1:]...)
					in.needy = true
					if ev.kind() == EvNodeFail {
						in.failed = true
					}
				}
				// A pipeline needs an even node count: a stranded odd
				// node is dead weight, return it to the pool.
				if len(in.share)%Quantum != 0 {
					in.share = in.share[:len(in.share)-1]
				}
			}
			if ev.kind() == EvNodeFail {
				s.res.Fails++
			} else {
				s.res.Drains++
			}
			s.res.Log = append(s.res.Log, EventRecord{At: s.now, Kind: ev.kind(), Trace: ie.idx, Node: ev.Node})
		case EvNodeJoin:
			f := ev.Factor
			if f == 0 {
				f = 1
			}
			joined := node{ID: s.nextID, Factor: f, Price: ev.Price}
			s.nextID++
			s.present = insertSorted(s.present, joined)
			s.presentPrice += ev.Price
			s.res.Joins++
			if ev.Class == ClassSpot {
				s.res.SpotJoins++
			}
			s.res.Log = append(s.res.Log, EventRecord{At: s.now, Kind: EvNodeJoin, Trace: ie.idx, Node: joined.ID})
		}
	}
	if changed {
		return s.replan()
	}
	return nil
}

// stepAll applies events already in the total order, one batch per
// distinct time, each after the departures due before it.
func (s *ElasticSim) stepAll(sorted []indexedEvent) error {
	for i, j := 0, 0; i < len(sorted); i = j {
		at := sorted[i].ev.At
		for j = i; j < len(sorted) && sorted[j].ev.At == at; j++ {
		}
		if err := s.advanceDepartures(at); err != nil {
			return err
		}
		if err := s.stepBatch(at, sorted[i:j]); err != nil {
			return err
		}
	}
	return nil
}

// advanceDepartures retires every departure strictly before limit, one
// re-plan per departure time. A departure at exactly limit is left for the
// batch step there, which processes it in the same re-plan as the batch —
// the pinned same-timestamp order (departures first).
func (s *ElasticSim) advanceDepartures(limit float64) error {
	for len(s.active) > 0 {
		departAt := s.earliestDeparture()
		if !(departAt < limit) {
			return nil
		}
		if err := s.stepBatch(departAt, nil); err != nil {
			return err
		}
	}
	return nil
}

// runToCompletion retires the remaining residents after the last trace
// event; a resident set that can no longer make progress is the stall error.
func (s *ElasticSim) runToCompletion() error {
	if err := s.advanceDepartures(math.Inf(1)); err != nil {
		return err
	}
	if len(s.active) == 0 {
		return nil
	}
	stuck := make([]string, len(s.active))
	for i, in := range s.active {
		stuck[i] = fmt.Sprintf("%s#%d", in.job.Name, in.run.Trace)
	}
	return fmt.Errorf("fleet: elastic trace stalls — no events left and no resident instance can run (%v)", stuck)
}

// seal fills r's makespan-anchored pool figures (makespan, final pool,
// utilization) and every arrival's run — the departed ones and the
// residents', in trace order — with their mean wait. Cost is the caller's:
// a completed trace anchors it at the makespan, a snapshot at the current
// time.
func (s *ElasticSim) seal(r *ElasticResult) {
	r.Makespan = s.makespan
	r.FinalNodes = len(s.present)
	if s.poolAtMakespan > 0 {
		r.Utilization = s.busySeconds / s.poolAtMakespan
	}
	r.Jobs, r.MeanWait = append([]ElasticJobRun(nil), s.done...), 0
	for _, in := range s.active {
		r.Jobs = append(r.Jobs, in.run)
	}
	slices.SortFunc(r.Jobs, func(x, y ElasticJobRun) int { return cmp.Compare(x.Trace, y.Trace) })
	for _, run := range r.Jobs {
		r.MeanWait += run.Wait
	}
	if len(r.Jobs) > 0 {
		r.MeanWait /= float64(len(r.Jobs))
	}
}

// ApplyError marks an Ingest failure from the apply phase: validation
// passed, some of the batch may already have mutated the simulation, and
// the state is no longer consistent with the recorded event log. Callers
// must stop using the sim — the controller poisons itself on one. Every
// other Ingest error is returned before any mutation and leaves the sim
// fully usable.
type ApplyError struct{ Err error }

func (e *ApplyError) Error() string { return e.Err.Error() }
func (e *ApplyError) Unwrap() error { return e.Err }

// Ingest applies one batch of live events. The whole batch is validated
// before anything mutates, then sorted into the pinned (time, kind rank,
// position) order, appended to the raw event log, and applied one distinct
// timestamp at a time with departure catch-up in between — exactly the
// schedule SimulateElastic would run for the same events.
//
// Every event's time must be strictly later than the newest previously
// ingested batch time: a batch landing at an already-processed timestamp
// would need a second re-plan where trace replay runs one, so it is
// rejected rather than silently breaking the determinism contract.
//
// An error from the apply phase (the resident cap, or a planner failure)
// leaves the simulation partially advanced and unusable; it is returned as
// an *ApplyError so callers can tell it from a clean pre-mutation
// rejection.
func (s *ElasticSim) Ingest(batch []Event) error {
	if !s.live {
		return fmt.Errorf("fleet: ingest on a trace-mode simulation")
	}
	if len(batch) == 0 {
		return fmt.Errorf("fleet: ingest: empty event batch")
	}
	if total := s.EventCount() + len(batch); total > MaxEvents {
		return fmt.Errorf("fleet: ingest: %d events would exceed the trace limit %d", total, MaxEvents)
	}
	churn := false
	for i, ev := range batch {
		if err := validateEvent(s.byName, "events", i, ev); err != nil {
			return err
		}
		churn = churn || ev.kind() != EvArrival
		if s.EventCount() > 0 && ev.At <= s.lastBatch {
			return fmt.Errorf("fleet: ingest: events[%d] at t=%g is not after the last ingested batch (t=%g)", i, ev.At, s.lastBatch)
		}
	}
	sorted := inOrder(batch)
	// Pre-walk churn against the evolving node set so a bad batch is
	// rejected before any state mutates (arrival residency depends on
	// departures and cannot be pre-checked; it errors at apply time). A
	// batch of arrivals alone has nothing to walk.
	if churn {
		ids := make([]bool, s.nextID, s.nextID+len(batch)) // present, by node id
		for _, n := range s.present {
			ids[n.ID] = true
		}
		for _, ie := range sorted {
			switch ev, k := ie.ev, ie.idx; ev.kind() {
			case EvNodeFail, EvNodeDrain:
				if ev.Node >= len(ids) || !ids[ev.Node] {
					return fmt.Errorf("fleet: ingest: events[%d] %s targets absent node %d", k, ev.kind(), ev.Node)
				}
				ids[ev.Node] = false
			case EvNodeJoin:
				if len(ids)+1 > MaxNodes {
					return fmt.Errorf("fleet: ingest: events[%d] join would exceed the node limit %d", k, MaxNodes)
				}
				ids = append(ids, true)
			}
		}
	}
	// Commit: trace indices continue the raw log, in applied order, so the
	// recorded log replays with identical indices.
	for i := range sorted {
		s.events = append(s.events, sorted[i].ev)
		sorted[i].idx = s.EventCount() - 1
	}
	if err := s.stepAll(sorted); err != nil {
		return &ApplyError{Err: err}
	}
	s.lastBatch = sorted[len(sorted)-1].ev.At
	return nil
}

// Now is the simulation's current time (the newest processed step).
func (s *ElasticSim) Now() float64 { return s.now }

// EventCount is how many live events have been ingested, a fork's count
// including those ingested before it.
func (s *ElasticSim) EventCount() int { return s.forked + len(s.events) }

// Events returns the raw ingested event log in applied order — the trace
// that, replayed through SimulateElastic, reproduces this simulation bit for
// bit — as a clipped view, which stays valid because the log is append-only.
// A fork's covers only the events it ingested itself.
func (s *ElasticSim) Events() []Event { return slices.Clip(s.events) }

// Log returns the processed-event records so far, a clipped view like Events
// (a fork's, only its own).
func (s *ElasticSim) Log() []EventRecord { return slices.Clip(s.res.Log) }

// Shares snapshots the allocation currently in effect (resident instances
// in arrival order).
func (s *ElasticSim) Shares() []FinalShare { return finalShares(s.active) }

// NodeCount is the present pool size; Residents the resident instance
// count.
func (s *ElasticSim) NodeCount() int { return len(s.present) }
func (s *ElasticSim) Residents() int { return len(s.active) }

// Cost is the bill so far: Σ price over the present pool integrated to the
// current time.
func (s *ElasticSim) Cost() float64 { return s.costSeconds }

// Fork copies the simulation state for what-if exploration: the copy can
// ingest hypothetical events or move knobs without touching the live sim.
// It clones only what is written in place, the residents into one slab;
// each share is shared clipped, so the next append on either side
// reallocates. The histories (res.Log, events, done) start empty at the
// fork: Events, Log and Snapshot of a fork cover only what it ingested,
// while EventCount, the event limit and new trace indices continue from the
// live count. The allocator and the per-job plan curves are shared too —
// curve slots are published atomically, so the fork and the live sim may
// apply concurrently — and a fork only pays for plans its hypothesis is the
// first to need.
func (s *ElasticSim) Fork() *ElasticSim {
	c := *s
	c.byName = maps.Clone(s.byName)
	c.sc.Jobs = append([]Job(nil), s.sc.Jobs...)
	res := *s.res
	res.Log = nil
	c.res = &res
	c.events, c.done, c.forked = nil, nil, s.EventCount()
	c.present = append([]node(nil), s.present...)
	slab := make([]einstance, len(s.active))
	c.active = make([]*einstance, len(s.active))
	for i, in := range s.active {
		slab[i] = *in
		slab[i].share = slices.Clip(in.share)
		c.active[i] = &slab[i]
	}
	return &c
}

// SetMigrationPenalty moves the restart-cost knob. Intended for what-if
// forks: changing it on a live sim makes the recorded log non-replayable
// under the original scenario.
func (s *ElasticSim) SetMigrationPenalty(p float64) error {
	if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		return fmt.Errorf("fleet: migration penalty must be finite and ≥ 0, got %g", p)
	}
	s.sc.MigrationPenalty = p
	return nil
}

// SetDeadline moves a job's deadline (0 removes it) in the job vocabulary
// and on every resident instance of the job. Intended for what-if forks,
// like SetMigrationPenalty.
func (s *ElasticSim) SetDeadline(job string, d float64) error {
	j, ok := s.byName[job]
	if !ok {
		return fmt.Errorf("fleet: unknown job %q", job)
	}
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("fleet: deadline must be finite and ≥ 0, got %g", d)
	}
	j.Deadline = d
	s.byName[job] = j
	for i := range s.sc.Jobs {
		if s.sc.Jobs[i].Name == job {
			s.sc.Jobs[i].Deadline = d
		}
	}
	for _, in := range s.active {
		if in.job.Name == job {
			in.job.Deadline = d
		}
	}
	return nil
}

// ReplanNow forces a re-plan at the current time under the sim's current
// knobs — how a what-if fork surfaces the allocation its hypothesis
// implies when the hypothesis changed knobs rather than events.
func (s *ElasticSim) ReplanNow() error {
	return s.replan()
}
