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
	// Utilization is plan-driven node-seconds over Nodes·Makespan: the
	// fraction of the cluster's capacity that chosen plans actually used.
	Utilization float64
	// MeanWait averages JobRun.Wait over the trace.
	MeanWait float64
	// Events counts arrivals + departures; Reallocations how many times
	// the allocator re-ran (once per event batch with active jobs).
	Events        int
	Reallocations int
	Jobs          []JobRun
}

// SimulateOn replays a scenario on e (nil selects the shared default
// engine).
func SimulateOn(e *engine.Engine, sc Scenario) (*SimResult, error) {
	return NewAllocator(e).Simulate(sc)
}

// Simulate replays the trace as a deterministic discrete-event simulation:
// at every arrival or departure the allocator re-runs over the jobs then
// resident, and between events each instance progresses at its allocated
// (straggler-penalized) throughput. Instances whose current allocation is
// infeasible make no progress and accumulate wait time. Event order is
// total — time, then departures before arrivals, then trace index — so the
// same scenario replays bit-identically at any engine pool size.
func (a *Allocator) Simulate(sc Scenario) (*SimResult, error) {
	req := Request{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: sc.Policy}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if len(sc.Trace) == 0 {
		return nil, fmt.Errorf("fleet: scenario has an empty trace")
	}
	byName := make(map[string]Job, len(sc.Jobs))
	for _, j := range sc.Jobs {
		byName[j.Name] = j
	}
	for i, ev := range sc.Trace {
		if _, ok := byName[ev.Job]; !ok {
			return nil, fmt.Errorf("fleet: trace[%d] names unknown job %q", i, ev.Job)
		}
		if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
			return nil, fmt.Errorf("fleet: trace[%d] arrival time must be finite and ≥ 0, got %g", i, ev.At)
		}
		if !(ev.Work > 0) || math.IsInf(ev.Work, 0) {
			return nil, fmt.Errorf("fleet: trace[%d] work must be positive and finite, got %g", i, ev.Work)
		}
	}

	// Arrivals in (time, trace index) order; the trace index is the total
	// tie-break and the identity of the instance throughout.
	order := make([]int, len(sc.Trace))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return sc.Trace[order[x]].At < sc.Trace[order[y]].At })

	type instance struct {
		trace     int
		job       Job
		remaining float64
		rate      float64 // current penalized throughput (seq/s)
		used      int     // nodes the current plan drives
		started   bool
	}
	res := &SimResult{Policy: req.policy(), Nodes: sc.Cluster.Nodes, Jobs: make([]JobRun, len(sc.Trace))}
	for i, ev := range sc.Trace {
		res.Jobs[i] = JobRun{Job: ev.Job, Trace: i, ArriveAt: ev.At, StartAt: -1, DoneAt: -1}
	}

	var active []*instance // arrival order — the allocator's input order
	var busyNodeSeconds float64
	now, next := 0.0, 0

	// reallocate re-runs the policy over the resident instances and
	// refreshes their rates. Instance names stay unique within a request:
	// a job arriving twice concurrently gets its trace index appended.
	reallocate := func() error {
		if len(active) == 0 {
			return nil
		}
		jobs := make([]Job, len(active))
		for i, in := range active {
			j := in.job
			j.Name = fmt.Sprintf("%s#%d", j.Name, in.trace)
			jobs[i] = j
		}
		al, err := a.Allocate(Request{Cluster: sc.Cluster, Jobs: jobs, Policy: sc.Policy})
		if err != nil {
			return err
		}
		for i, in := range active {
			in.rate = al.Jobs[i].Throughput
			in.used = al.Jobs[i].NodesUsed
			if in.rate > 0 && !in.started {
				in.started = true
				res.Jobs[in.trace].StartAt = now
				res.Jobs[in.trace].Wait = now - res.Jobs[in.trace].ArriveAt
			}
		}
		res.Reallocations++
		return nil
	}

	for next < len(order) || len(active) > 0 {
		// Next departure under current rates: earliest finish, tie-break
		// by trace index (active is arrival-ordered, scan keeps first).
		depart, departAt := -1, math.Inf(1)
		for i, in := range active {
			if in.rate <= 0 {
				continue
			}
			at := now + in.remaining/in.rate
			if at < departAt {
				depart, departAt = i, at
			}
		}
		arriveAt := math.Inf(1)
		if next < len(order) {
			arriveAt = sc.Trace[order[next]].At
		}
		if depart < 0 && next >= len(order) {
			stuck := make([]string, len(active))
			for i, in := range active {
				stuck[i] = fmt.Sprintf("%s#%d", in.job.Name, in.trace)
			}
			return nil, fmt.Errorf("fleet: trace stalls — no arrivals left and no resident instance can run (%v)", stuck)
		}
		t := math.Min(departAt, arriveAt)
		if t < now {
			t = now // float residue: a co-finisher's remaining may dip below 0
		}
		// Advance every running instance to t.
		dt := t - now
		if dt > 0 {
			for _, in := range active {
				if in.rate > 0 {
					in.remaining -= dt * in.rate
					busyNodeSeconds += dt * float64(in.used)
				}
			}
		}
		now = t
		changed := false
		// Departures first: the completing instance (exactly zero by
		// construction; floor to zero to absorb float residue).
		if depart >= 0 && departAt <= arriveAt {
			in := active[depart]
			in.remaining = 0
			run := &res.Jobs[in.trace]
			run.DoneAt = now
			if d := in.job.Deadline; d > 0 && now-run.ArriveAt > d {
				run.MissedDeadline = true
			}
			active = append(active[:depart], active[depart+1:]...)
			res.Events++
			changed = true
		}
		// Then every arrival due at t (same-time arrivals batch into one
		// reallocation, in trace order).
		for next < len(order) && sc.Trace[order[next]].At <= now {
			ev := sc.Trace[order[next]]
			active = append(active, &instance{trace: order[next], job: byName[ev.Job], remaining: ev.Work})
			next++
			res.Events++
			changed = true
		}
		if changed {
			if err := reallocate(); err != nil {
				return nil, err
			}
		}
	}
	res.Makespan = now
	if res.Makespan > 0 {
		res.Utilization = busyNodeSeconds / (float64(sc.Cluster.Nodes) * res.Makespan)
	}
	var wait float64
	for i := range res.Jobs {
		wait += res.Jobs[i].Wait
	}
	res.MeanWait = wait / float64(len(res.Jobs))
	return res, nil
}
