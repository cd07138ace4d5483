package fleet

import (
	"fmt"
	"math"
	"sort"

	"chimera/internal/engine"
)

// Arrival is one trace event: a job instance entering the cluster with a
// fixed amount of work.
type Arrival struct {
	// At is the arrival time in seconds (≥ 0).
	At float64
	// Job names an entry of the scenario's job list.
	Job string
	// Work is the number of sequences the instance must process before it
	// departs.
	Work float64
}

// Scenario is one fleet-simulation problem: a cluster, the job vocabulary,
// an allocation policy, and an arrival trace over that vocabulary.
type Scenario struct {
	Cluster Cluster
	Jobs    []Job
	Policy  Policy
	Trace   []Arrival
}

// JobRun reports one trace arrival's fate.
type JobRun struct {
	// Job is the arrival's job name; Trace its index in the input trace.
	Job   string
	Trace int
	// ArriveAt, StartAt and DoneAt are absolute times; Wait is
	// StartAt − ArriveAt, the time the instance sat without an allocation
	// that could run it.
	ArriveAt float64
	StartAt  float64
	DoneAt   float64
	Wait     float64
	// MissedDeadline is set when the job declares a deadline and
	// DoneAt − ArriveAt exceeds it.
	MissedDeadline bool
}

// SimResult is the outcome of replaying one trace.
type SimResult struct {
	Policy Policy
	Nodes  int
	// Makespan is the time the last instance departs.
	Makespan float64
	// Utilization is plan-driven node-seconds over the pool integrated to
	// the makespan: the fraction of the cluster's capacity that chosen plans
	// actually used.
	Utilization float64
	// MeanWait averages JobRun.Wait over the trace.
	MeanWait float64
	// Events counts arrivals + departures; Reallocations how many times
	// the allocator re-ran (once per distinct event time with residents).
	Events        int
	Reallocations int
	Jobs          []JobRun
}

// SimulateOn replays a scenario on e (nil selects the shared default
// engine).
func SimulateOn(e *engine.Engine, sc Scenario) (*SimResult, error) {
	return NewAllocator(e).Simulate(sc)
}

// Simulate replays the trace through the elastic stepper: a classic trace
// is sugar for arrival events on a pool that never churns, re-planned from
// scratch at every event with no migration penalty — one same-time batch of
// arrivals per step, departures caught up between. The per-arrival checks
// and the MaxEvents bound stay here so errors name the trace; a pool with no
// joins needs no MaxElasticNodes cap, so any cluster a Request admits
// replays. Aging, one re-plan per departure time, the MaxResident bound and
// the stall error are ElasticSim's (its errors say events[i] for trace[i]).
func (a *Allocator) Simulate(sc Scenario) (*SimResult, error) {
	esc := ElasticScenario{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: sc.Policy, Replan: ReplanFull}
	if err := esc.validateConfig(); err != nil {
		return nil, err
	}
	if len(sc.Trace) == 0 {
		return nil, fmt.Errorf("fleet: scenario has an empty trace")
	}
	if len(sc.Trace) > MaxEvents {
		return nil, fmt.Errorf("fleet: %d trace arrivals exceed the limit %d", len(sc.Trace), MaxEvents)
	}
	known := make(map[string]bool, len(sc.Jobs))
	for _, j := range sc.Jobs {
		known[j.Name] = true
	}
	sorted := make([]indexedEvent, len(sc.Trace))
	for i, ev := range sc.Trace {
		if !known[ev.Job] {
			return nil, fmt.Errorf("fleet: trace[%d] names unknown job %q", i, ev.Job)
		}
		if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
			return nil, fmt.Errorf("fleet: trace[%d] arrival time must be finite and ≥ 0, got %g", i, ev.At)
		}
		if !(ev.Work > 0) || math.IsInf(ev.Work, 0) {
			return nil, fmt.Errorf("fleet: trace[%d] work must be positive and finite, got %g", i, ev.Work)
		}
		sorted[i] = indexedEvent{ev: Event{At: ev.At, Kind: EvArrival, Job: ev.Job, Work: ev.Work}, idx: i}
	}
	sort.SliceStable(sorted, func(x, y int) bool { return sorted[x].ev.At < sorted[y].ev.At })
	s := newElasticSim(a, esc)
	for i, j := 0, 0; i < len(sorted); i = j {
		at := sorted[i].ev.At
		for j = i; j < len(sorted) && sorted[j].ev.At == at; j++ {
		}
		if err := s.advanceDepartures(at); err != nil {
			return nil, err
		}
		if err := s.stepBatch(at, sorted[i:j]); err != nil {
			return nil, err
		}
	}
	if err := s.runToCompletion(); err != nil {
		return nil, err
	}
	s.finish(len(sorted))
	er := s.res
	res := &SimResult{
		Policy: er.Policy, Nodes: sc.Cluster.Nodes,
		Makespan: er.Makespan, Utilization: er.Utilization, MeanWait: er.MeanWait,
		Events: er.Events, Reallocations: er.Reallocations,
		Jobs: make([]JobRun, len(er.Jobs)),
	}
	for i, run := range er.Jobs {
		res.Jobs[i] = JobRun{
			Job: run.Job, Trace: run.Trace,
			ArriveAt: run.ArriveAt, StartAt: run.StartAt, DoneAt: run.DoneAt, Wait: run.Wait,
			MissedDeadline: run.MissedDeadline,
		}
	}
	return res, nil
}
