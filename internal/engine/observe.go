package engine

import (
	"strconv"

	"chimera/internal/obs"
)

// engMetrics holds the engine's pre-resolved instrument handles. Handles
// are interned once at construction so the hot paths never touch the
// registry's mutex; a nil *engMetrics (observability disabled) short-
// circuits before any clock read, leaving the uninstrumented paths
// byte-identical to an engine built without Observe.
type engMetrics struct {
	evaluate *obs.Histogram // full simulator evaluations (memo misses)
	schedule *obs.Histogram // schedule constructions (memo misses)
	critical *obs.Histogram // critical paths (memo misses)
	wait     *obs.Histogram // memo hits incl. single-flight waits
	sweep    *obs.Histogram // whole Sweep calls

	// workerBusy[w] accumulates nanoseconds worker slot w spent inside
	// ForEach bodies — per-worker utilization for the pool.
	workerBusy []*obs.Counter
}

// Observe attaches a metric registry to the engine. All engine series are
// prefixed engine_:
//
//	engine_evaluate_seconds            histogram, uncached simulator runs
//	engine_schedule_build_seconds      histogram, uncached schedule builds
//	engine_critical_path_seconds       histogram, uncached critical paths
//	                                   (closed form or two probes)
//	engine_memo_wait_seconds           histogram, memo hits (incl. waiting
//	                                   on another goroutine's in-flight compute)
//	engine_sweep_seconds               histogram, whole grid sweeps
//	engine_worker_busy_nanoseconds_total{worker=N}  counter per pool slot
//	engine_cache_{hits,misses,evictions}_total{table=...}  read-through funcs,
//	                                   table=schedules|criticals|outcomes
//	engine_cache_entries{table=...}    gauge func, resident keys
//	engine_cache_hit_ratio             gauge func, Stats.HitRate (all
//	                                   three tables)
//
// The cache series read the engine's existing atomic counters at
// scrape time (CounterFunc), so their bookkeeping costs the hot path
// nothing beyond what the engine already paid. A nil registry leaves the
// engine uninstrumented.
func Observe(reg *obs.Registry) Option {
	return func(e *Engine) { e.obsReg = reg }
}

// initObserve resolves instrument handles against the registry attached by
// Observe. Runs in New after all options, so the worker count is final.
func (e *Engine) initObserve() {
	reg := e.obsReg
	if reg == nil {
		return
	}
	m := &engMetrics{
		evaluate: reg.Histogram("engine_evaluate_seconds", "uncached simulator evaluation latency"),
		schedule: reg.Histogram("engine_schedule_build_seconds", "uncached schedule construction latency"),
		critical: reg.Histogram("engine_critical_path_seconds", "uncached critical-path latency"),
		wait:     reg.Histogram("engine_memo_wait_seconds", "memo hit latency including single-flight waits"),
		sweep:    reg.Histogram("engine_sweep_seconds", "whole-sweep latency"),
	}
	m.workerBusy = make([]*obs.Counter, e.workers)
	for w := range m.workerBusy {
		m.workerBusy[w] = reg.Counter("engine_worker_busy_nanoseconds_total",
			"nanoseconds each worker slot spent executing pool bodies", obs.L("worker", strconv.Itoa(w)))
	}
	tables := []struct {
		name string
		memo interface {
			Stats() (hits, misses uint64)
			Evictions() uint64
			Len() int
		}
	}{
		{"schedules", e.schedules},
		{"criticals", e.criticals},
		{"outcomes", e.outcomes},
	}
	for _, t := range tables {
		memo := t.memo
		label := obs.L("table", t.name)
		reg.CounterFunc("engine_cache_hits_total", "memo table hits",
			func() uint64 { h, _ := memo.Stats(); return h }, label)
		reg.CounterFunc("engine_cache_misses_total", "memo table misses",
			func() uint64 { _, m := memo.Stats(); return m }, label)
		reg.CounterFunc("engine_cache_evictions_total", "memo table LRU evictions",
			func() uint64 { return memo.Evictions() }, label)
		reg.GaugeFunc("engine_cache_entries", "memo table resident keys",
			func() float64 { return float64(memo.Len()) }, label)
	}
	reg.GaugeFunc("engine_cache_hit_ratio", "fraction of all memo lookups that hit",
		func() float64 { return e.Stats().HitRate() })
	e.met = m
}
