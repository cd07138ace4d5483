package fleet

import (
	"time"

	"chimera/internal/obs"
)

// fleetMetrics holds the allocator's pre-resolved instrument handles so the
// allocation and re-plan paths never touch the registry mutex. Nil when
// observability is disabled (the default for batch callers).
type fleetMetrics struct {
	allocate *obs.Histogram // whole Allocate calls
	replan   *obs.Histogram // per-event-batch elastic re-plans

	allocations     *obs.Counter // Allocate calls completed
	replans         *obs.Counter // elastic re-plans run
	jobsReevaluated *obs.Counter // job evaluations summed over re-plans
}

// Observe attaches a metric registry to the allocator. Fleet series:
//
//	fleet_allocate_seconds        histogram, whole Allocate calls
//	fleet_replan_seconds          histogram, per-event-batch elastic re-plans
//	fleet_allocations_total       counter
//	fleet_replans_total           counter
//	fleet_jobs_reevaluated_total  counter; divided by fleet_replans_total it
//	                              is the mean jobs re-evaluated per batch
//	fleet_allocator_bids_total{result="hit"|"miss"}  candidate-plan values
//	                              ("bids") the search read, as PlanStats
//	                              counts them, each once: a hit came from a
//	                              resolved plan-curve slot (added once per
//	                              scan, not per read) or from the plan memo
//	                              (a wait on another reader's planner run
//	                              included), a miss ran the planner and is
//	                              not also a hit
//
// A nil registry leaves the allocator uninstrumented. Instrumentation never
// changes results: every hook is a clock read plus atomic adds outside the
// decision path.
func (a *Allocator) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	a.met = &fleetMetrics{
		allocate: reg.Histogram("fleet_allocate_seconds", "whole fleet-allocation latency"),
		replan:   reg.Histogram("fleet_replan_seconds", "per-event-batch elastic re-plan latency"),
		allocations: reg.Counter("fleet_allocations_total",
			"fleet allocations computed"),
		replans: reg.Counter("fleet_replans_total",
			"elastic re-plans run"),
		jobsReevaluated: reg.Counter("fleet_jobs_reevaluated_total",
			"job evaluations performed across elastic re-plans"),
	}
	reg.CounterFunc("fleet_allocator_bids_total", "candidate-plan bids served from a plan curve or the plan memo",
		func() uint64 { h, _ := a.PlanStats(); return h }, obs.L("result", "hit"))
	reg.CounterFunc("fleet_allocator_bids_total", "candidate-plan bids computed by the planner",
		func() uint64 { _, m := a.PlanStats(); return m }, obs.L("result", "miss"))
}

// observeAllocate times one Allocate call; it returns a func to defer (nil
// metrics cost one predictable branch).
func (a *Allocator) observeAllocate() func() {
	m := a.met
	if m == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		m.allocate.Since(start)
		m.allocations.Inc()
	}
}

// observeReplan times one elastic re-plan and attributes the batch's job
// evaluations; jobsBefore is res.JobsEvaluated at entry.
func (a *Allocator) observeReplan(res *ElasticResult, jobsBefore int) func() {
	m := a.met
	if m == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		m.replan.Since(start)
		m.replans.Inc()
		if d := res.JobsEvaluated - jobsBefore; d > 0 {
			m.jobsReevaluated.Add(uint64(d))
		}
	}
}
