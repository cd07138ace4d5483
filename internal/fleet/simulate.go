package fleet

import (
	"fmt"

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
	Job   string `json:"job"`
	Trace int    `json:"trace"`
	// ArriveAt, StartAt and DoneAt are absolute times; Wait is
	// StartAt − ArriveAt, the time the instance sat without an allocation
	// that could run it.
	ArriveAt float64 `json:"arrive_at"`
	StartAt  float64 `json:"start_at"`
	DoneAt   float64 `json:"done_at"`
	Wait     float64 `json:"wait"`
	// MissedDeadline is set when the job declares a deadline and
	// DoneAt − ArriveAt exceeds it.
	MissedDeadline bool `json:"missed_deadline"`
}

// SimResult is the outcome of replaying one trace: the classic
// /v1/fleet/simulate reply and chimera-fleet -json's output as it stands.
type SimResult struct {
	Policy Policy `json:"policy"`
	Nodes  int    `json:"nodes"`
	// Makespan is the time the last instance departs.
	Makespan float64 `json:"makespan"`
	// Utilization is plan-driven node-seconds over the pool integrated to
	// the makespan: the fraction of the cluster's capacity that chosen plans
	// actually used.
	Utilization float64 `json:"utilization"`
	// MeanWait averages JobRun.Wait over the trace.
	MeanWait float64 `json:"mean_wait"`
	// Events counts arrivals + departures; Reallocations how many times
	// the allocator re-ran (once per distinct event time with residents).
	Events        int      `json:"events"`
	Reallocations int      `json:"reallocations"`
	Jobs          []JobRun `json:"jobs"`
}

// SimulateOn replays a scenario on e (nil selects the shared default
// engine): NewAllocator(e).Simulate. bench/ is its last caller; delete it
// with that call.
func SimulateOn(e *engine.Engine, sc Scenario) (*SimResult, error) {
	return NewAllocator(e).Simulate(sc)
}

// event is the arrival as the elastic stepper replays it.
func (arr Arrival) event() Event {
	return Event{At: arr.At, Kind: EvArrival, Job: arr.Job, Work: arr.Work}
}

// Validate checks the scenario before any planning: the request part as
// Request.Validate does, then the trace — non-empty, at most MaxEvents
// arrivals, each naming a known job with a finite time ≥ 0 and positive
// finite work. Simulate calls it; surface layers (serve, CLI) call it too,
// so a malformed arrival is refused up front, named trace[i].
func (sc Scenario) Validate() error {
	if err := (Request{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: sc.Policy}).Validate(); err != nil {
		return err
	}
	if len(sc.Trace) == 0 {
		return fmt.Errorf("fleet: scenario has an empty trace")
	}
	if len(sc.Trace) > MaxEvents {
		return fmt.Errorf("fleet: %d trace arrivals exceed the limit %d", len(sc.Trace), MaxEvents)
	}
	index := jobIndex(sc.Jobs)
	for i, arr := range sc.Trace {
		if err := validateEvent(index, "trace", i, arr.event()); err != nil {
			return err
		}
	}
	return nil
}

// Simulate replays the trace through the elastic stepper: a classic trace
// is sugar for arrival events on a pool that never churns, re-planned from
// scratch at every event with no migration penalty. Validate's checks name
// the trace; aging, one re-plan per departure time, the MaxResident bound
// and the stall error are ElasticSim's (its errors say events[i] for
// trace[i]).
func (a *Allocator) Simulate(sc Scenario) (*SimResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	esc := ElasticScenario{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: sc.Policy, Replan: ReplanFull,
		Events: make([]Event, len(sc.Trace))}
	for i, arr := range sc.Trace {
		esc.Events[i] = arr.event()
	}
	er, err := a.SimulateElastic(esc)
	if err != nil {
		return nil, err
	}
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
