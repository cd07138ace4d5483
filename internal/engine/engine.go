// Package engine is the shared concurrent evaluation engine behind the
// planner (§3.4 configuration selection) and the experiment sweeps (§4.2):
// it fans a grid of simulator configurations out over a GOMAXPROCS-sized
// worker pool and memoizes the expensive, repeatedly-shared intermediates —
// schedule construction, critical-path counts and full simulator
// evaluations — keyed by their value-type descriptions. The pool is a
// bounded fan-out: the participants of a ForEach call claim its indices off
// one shared counter (pool.go).
//
// Two properties make the fan-out safe and the results reproducible:
//
//   - constructed Schedules are immutable after generation and every
//     replay/analysis entry point is read-only, so one cached schedule can
//     be shared by any number of concurrent evaluations;
//   - results are written into per-index slots and selection helpers scan
//     them in input order, so a Sweep returns bit-identical output whether
//     it ran on one worker or many.
package engine

import (
	"runtime"
	"sync"
	"time"

	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// ScheduleKey identifies a schedule construction: the memoization key for
// generated schedules and their derived analyses (critical paths). The
// zero F and Concat values mean "scheme defaults" (F=1, direct
// concatenation).
type ScheduleKey struct {
	// Scheme is the generator name: "chimera", "gpipe", "dapple", "gems",
	// "pipedream", "pipedream-2bw", "1f1b".
	Scheme string
	// D is the number of pipeline stages; N the micro-batch count.
	D, N int
	// F is Chimera's pipelines-per-direction (ignored by other schemes).
	F int
	// Concat is Chimera's N > D scaling method (ignored by other schemes).
	Concat schedule.ConcatMode
	// Scheduler is the placement policy ("" = the scheme's fixed placement;
	// otherwise a schedule.Schedulers() name re-shaping the schedule).
	Scheduler string
	// Speed carries the placement speed factors for a list scheduler in
	// sim.EncodeSpeedFactors' canonical string form (keys must stay
	// comparable value types). "" with a non-empty Scheduler means the
	// policy sees a homogeneous cluster and defers to the fixed placement.
	Speed string
}

// ChimeraKey is shorthand for a Chimera schedule key. F is canonicalized
// (0 → 1) so keys from configs and keys from built schedules coincide.
func ChimeraKey(d, n, f int, concat schedule.ConcatMode) ScheduleKey {
	if f == 0 {
		f = 1
	}
	return ScheduleKey{Scheme: "chimera", D: d, N: n, F: f, Concat: concat}
}

// canonical maps equivalent keys onto one representative so they share one
// cache entry: chimera's F=0 means F=1, and any concatenation mode with
// N ≤ D builds the direct schedule (the generator's `n <= d || Direct`
// branch); non-chimera schemes ignore F and Concat entirely. Every memo
// boundary (Schedule, CriticalPath, Evaluate) canonicalizes first.
func (e *Engine) canonical(k ScheduleKey) ScheduleKey {
	// The placement-policy axis: "fixed" is the identity policy, and every
	// list policy defers to the fixed placement when its speed factors carry
	// no heterogeneity signal, so all of those keys collapse onto the fixed
	// representative (Scheduler "", Speed ""). An undecodable Speed string
	// is left as-is for buildSchedule to reject.
	if k.Scheduler == "fixed" {
		k.Scheduler = ""
	}
	if k.Scheduler == "" {
		k.Speed = ""
	} else if factors, err := e.decodeSpeed(k.Speed); err == nil && schedule.UniformSpeed(factors) {
		k.Scheduler, k.Speed = "", ""
	}
	if k.Scheme != "chimera" {
		k.F, k.Concat = 0, schedule.Direct
		return k
	}
	if k.F == 0 {
		k.F = 1
	}
	if k.N <= k.D {
		k.Concat = schedule.Direct
	}
	return k
}

// chimera returns the configuration of a fixed-placement Chimera key (ok
// false for a list scheduler's re-placement or a baseline scheme). Its
// closed-form critical path, schedule.ChimeraConfig.CriticalPath, decides
// its own scope: the engine asks it first and builds and probes the
// schedule only when it has no answer.
func (k ScheduleKey) chimera() (cfg schedule.ChimeraConfig, ok bool) {
	return schedule.ChimeraConfig{D: k.D, N: k.N, F: k.F, Concat: k.Concat}, k.Scheme == "chimera" && k.Scheduler == ""
}

// Spec fully describes one simulator evaluation as a comparable value: the
// schedule by key plus every sim.Config knob. Being a value type, it serves
// directly as the result-cache key.
type Spec struct {
	Sched ScheduleKey
	Model model.Config
	// MicroBatch is B; W the number of data-parallel pipeline replicas.
	MicroBatch int
	W          int
	// Recompute forces activation recomputation; AutoRecompute instead
	// mirrors sim.AutoRun, enabling recomputation only when the plain
	// configuration exceeds device memory.
	Recompute     bool
	AutoRecompute bool
	Sync          sim.SyncStrategy
	Allreduce     sim.AllReduceAlg
	Interference  float64
	ZeRO          bool
	// CompressionFactor scales allreduce bytes (0/1 = exact fp32).
	CompressionFactor float64
	// SpeedFactors is sim.Config.SpeedFactors in sim.EncodeSpeedFactors'
	// canonical string form ("" = homogeneous): Spec is a cache key and must
	// stay a comparable value type, which a slice would break. The encoding
	// round-trips float64s exactly.
	SpeedFactors string
	Device       sim.Device
	Network      sim.Network
}

// decodedFactors is a speed memo entry: sim.DecodeSpeedFactors' result.
type decodedFactors struct {
	factors []float64
	err     error
}

// decodeSpeed is sim.DecodeSpeedFactors through the engine's speed memo, so
// canonicalizing a key decodes nothing and allocates nothing after a factor
// string's first use. The strings come from clients (/v1/simulate and a
// heterogeneous /v1/plan), so the memo has the engine's entry bound: a
// daemon's engine keeps no more decoded strings than outcomes. Decoded
// slices are shared and read-only.
func (e *Engine) decodeSpeed(enc string) ([]float64, error) {
	if enc == "" {
		return nil, nil
	}
	d, ok := e.speeds.Cached(enc)
	if !ok {
		d = e.speeds.Do(enc, func() decodedFactors {
			factors, err := sim.DecodeSpeedFactors(enc)
			return decodedFactors{factors, err}
		})
	}
	return d.factors, d.err
}

// Config materializes the sim.Config for this spec around a built schedule.
// The speed-factor string must be valid (callers validate at construction);
// Evaluate surfaces a decode error as the outcome's Err.
func (sp Spec) Config(s *schedule.Schedule) (sim.Config, error) {
	factors, err := sim.DecodeSpeedFactors(sp.SpeedFactors)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Model: sp.Model, Schedule: s, MicroBatch: sp.MicroBatch, W: sp.W,
		Recompute: sp.Recompute, Sync: sp.Sync, Allreduce: sp.Allreduce,
		Interference: sp.Interference, ZeRO: sp.ZeRO,
		CompressionFactor: sp.CompressionFactor,
		SpeedFactors:      factors,
		Device:            sp.Device, Network: sp.Network,
	}, nil
}

// Outcome is the result of evaluating one Spec. Exactly one of Result and
// Err is set. Outcomes are shared between cache users: treat Result as
// read-only.
type Outcome struct {
	Result *sim.Result
	// Recompute reports whether the evaluation ran with activation
	// recomputation (meaningful under AutoRecompute).
	Recompute bool
	Err       error
}

// Stats is a snapshot of the engine's cache counters.
type Stats struct {
	ScheduleHits, ScheduleMisses uint64
	CriticalHits, CriticalMisses uint64
	OutcomeHits, OutcomeMisses   uint64
	// Evictions count entries dropped by the bounded-capacity LRU mode;
	// always zero on a default (unbounded) engine.
	ScheduleEvictions, CriticalEvictions, OutcomeEvictions uint64
	// Entries are the resident key counts at snapshot time.
	ScheduleEntries, CriticalEntries, OutcomeEntries int
	// Capacity is the per-table entry bound (0 = unbounded).
	Capacity int
}

// HitRate returns the fraction of all cache lookups that were hits.
func (s Stats) HitRate() float64 {
	hits := s.ScheduleHits + s.CriticalHits + s.OutcomeHits
	total := hits + s.ScheduleMisses + s.CriticalMisses + s.OutcomeMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Engine owns a bounded worker pool and the memoization tables. The
// zero value is not usable; construct with New or use the process-wide
// Default engine.
type Engine struct {
	workers  int
	capacity int
	// slots carries the pool's worker tokens (slot ids 0..workers-1). It
	// bounds in-flight ForEach bodies engine-wide, so Workers(n) holds even
	// when many goroutines share one engine (the Default engine's normal
	// situation), not just per call. See pool.go.
	slots chan int

	schedules *Memo[ScheduleKey, schedOutcome]
	criticals *Memo[ScheduleKey, critOutcome]
	outcomes  *Memo[Spec, Outcome]
	speeds    *Memo[string, decodedFactors]

	// obsReg is the registry attached by Observe (nil = uninstrumented);
	// met holds the handles initObserve resolves from it.
	obsReg *obs.Registry
	met    *engMetrics
}

// schedOutcome is a schedule memo entry: the built schedule or its error.
type schedOutcome struct {
	s   *schedule.Schedule
	err error
}

type critOutcome struct {
	cf, cb int
	err    error
}

// Option configures New.
type Option func(*Engine)

// Workers fixes the worker-pool size (default GOMAXPROCS). One worker makes
// every engine entry point run serially on the calling goroutine.
func Workers(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// Capacity bounds each memoization table to n entries with LRU eviction.
// The default (0) keeps the unbounded retention that batch sweeps rely on
// for bit-identical repeat walks; a long-running daemon (chimera-serve)
// opts in so an endless stream of distinct requests cannot grow memory
// without limit. Evictions are reported through Stats.
func Capacity(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.capacity = n
		}
	}
}

// ReferenceCore has no effect. It selected a second replay core for
// Evaluate when the simulator had one; the simulator now replays only the
// compiled graph, and the reference interpreter (internal/refinterp) is an
// oracle the tests hold the graph's read-outs to. bench/ (its golden
// generator, bench/goldengen.go) is its last caller; its engines run only
// the planner and the fleet allocator, which never call Evaluate. Delete it
// with that caller.
func ReferenceCore() Option { return func(*Engine) {} }

// ForDaemon resolves a daemon's engine configuration: own when the caller
// supplied an engine (it keeps whatever instrumentation it was built with),
// otherwise a new engine registered on reg with workers pool slots
// (0 = GOMAXPROCS) and every memo table bounded to capacity (0 = unbounded).
func ForDaemon(own *Engine, reg *obs.Registry, workers, capacity int) *Engine {
	if own != nil {
		return own
	}
	return New(Observe(reg), Workers(workers), Capacity(capacity))
}

// New builds an engine with a GOMAXPROCS-sized pool and empty caches.
func New(opts ...Option) *Engine {
	e := &Engine{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(e)
	}
	e.schedules = NewMemoCap[ScheduleKey, schedOutcome](e.capacity)
	e.criticals = NewMemoCap[ScheduleKey, critOutcome](e.capacity)
	e.outcomes = NewMemoCap[Spec, Outcome](e.capacity)
	e.speeds = NewMemoCap[string, decodedFactors](e.capacity)
	e.slots = make(chan int, e.workers)
	for s := 0; s < e.workers; s++ {
		e.slots <- s
	}
	e.initObserve()
	return e
}

var (
	defaultOnce sync.Once
	defaultEng  *Engine
)

// Default returns the process-wide shared engine. The planner facade and
// the experiment sweeps all route through it, so repeated figures reuse
// each other's schedules and evaluations.
//
// Retention: caches are unbounded and never evicted — ideal for the
// CLIs and figure suites this repo ships, where reuse is the point. A
// long-lived embedder sweeping many distinct configurations should use a
// private New() engine per batch, or call Reset between batches.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEng = New() })
	return defaultEng
}

// WorkerCount reports the configured pool size.
func (e *Engine) WorkerCount() int { return e.workers }

// Schedule returns the memoized schedule for key, constructing it on first
// use. The returned schedule is shared: callers must not mutate it.
func (e *Engine) Schedule(key ScheduleKey) (*schedule.Schedule, error) {
	key = e.canonical(key)
	if out, ok := e.schedules.Cached(key); ok {
		return out.s, out.err
	}
	m := e.met
	out := e.schedules.Do(key, func() schedOutcome {
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		s, err := buildSchedule(key)
		if m != nil {
			m.schedule.Since(start)
		}
		return schedOutcome{s, err}
	})
	return out.s, out.err
}

// buildSchedule constructs the schedule key names through schedule.Build,
// the one constructor of every scheme and placement policy.
func buildSchedule(key ScheduleKey) (*schedule.Schedule, error) {
	factors, err := sim.DecodeSpeedFactors(key.Speed)
	if err != nil {
		return nil, err
	}
	return schedule.Build(schedule.Spec{
		Scheme: key.Scheme, Scheduler: key.Scheduler,
		D: key.D, N: key.N, F: key.F, Concat: key.Concat,
		SpeedFactors: factors,
	})
}

// Graph returns the compiled dependency-graph IR for the schedule
// identified by key, one per key: it rides the memoized schedule, which
// compiles itself once and caches the result.
func (e *Engine) Graph(key ScheduleKey) (*schedule.Graph, error) {
	s, err := e.Schedule(key)
	if err != nil {
		return nil, err
	}
	return s.Graph()
}

// CriticalPath returns the (Cf, Cb) critical-path counts for the schedule
// identified by key (§3.4's Eq. 1 inputs), memoized under the full key. A
// key whose counts schedule.ChimeraConfig.CriticalPath gives builds,
// compiles and replays nothing. Every other key runs schedule.CriticalPath's
// two probes on its own memoized schedule.
func (e *Engine) CriticalPath(key ScheduleKey) (cf, cb int, err error) {
	key = e.canonical(key)
	if out, ok := e.criticals.Cached(key); ok {
		return out.cf, out.cb, out.err
	}
	m := e.met
	out := e.criticals.Do(key, func() critOutcome {
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		var out critOutcome
		closed := false
		if cfg, ok := key.chimera(); ok {
			out.cf, out.cb, closed, out.err = cfg.CriticalPath()
		}
		if !closed && out.err == nil {
			var s *schedule.Schedule
			if s, out.err = e.Schedule(key); out.err == nil {
				out.cf, out.cb, out.err = schedule.CriticalPath(s)
			}
		}
		if m != nil {
			m.critical.Since(start)
		}
		return out
	})
	return out.cf, out.cb, out.err
}

// Evaluate runs (or recalls) one simulator evaluation. A completed hit is
// one map probe: no closure runs and nothing allocates. With observability
// attached, a memo miss records its compute time in engine_evaluate_seconds
// and a hit records the time spent recalling (including any wait on another
// goroutine's in-flight computation) in engine_memo_wait_seconds; the clock
// is read only then.
func (e *Engine) Evaluate(spec Spec) Outcome {
	spec.Sched = e.canonical(spec.Sched)
	m := e.met
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	out, ok := e.outcomes.Cached(spec)
	computed := false
	if !ok {
		out = e.outcomes.Do(spec, func() Outcome {
			computed = true
			return e.evaluate(spec)
		})
	}
	if m != nil {
		if computed {
			m.evaluate.Since(start)
		} else {
			m.wait.Since(start)
		}
	}
	return out
}

func (e *Engine) evaluate(spec Spec) Outcome {
	s, err := e.Schedule(spec.Sched)
	if err != nil {
		return Outcome{Err: err}
	}
	cfg, err := spec.Config(s)
	if err != nil {
		return Outcome{Err: err}
	}
	if spec.AutoRecompute {
		res, rec, err := sim.AutoRun(cfg)
		return Outcome{Result: res, Recompute: rec, Err: err}
	}
	res, err := sim.Run(cfg)
	return Outcome{Result: res, Recompute: spec.Recompute, Err: err}
}

// Sweep evaluates every spec on the worker pool and returns the outcomes in
// input order. Outcome i corresponds to specs[i] regardless of which worker
// computed it or when.
func (e *Engine) Sweep(specs []Spec) []Outcome {
	m := e.met
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	out := make([]Outcome, len(specs))
	e.ForEach(len(specs), func(i int) { out[i] = e.Evaluate(specs[i]) })
	if m != nil {
		m.sweep.Since(start)
	}
	return out
}

// Stats snapshots the cache counters.
func (e *Engine) Stats() Stats {
	var st Stats
	st.ScheduleHits, st.ScheduleMisses = e.schedules.Stats()
	st.CriticalHits, st.CriticalMisses = e.criticals.Stats()
	st.OutcomeHits, st.OutcomeMisses = e.outcomes.Stats()
	st.ScheduleEvictions = e.schedules.Evictions()
	st.CriticalEvictions = e.criticals.Evictions()
	st.OutcomeEvictions = e.outcomes.Evictions()
	st.ScheduleEntries = e.schedules.Len()
	st.CriticalEntries = e.criticals.Len()
	st.OutcomeEntries = e.outcomes.Len()
	st.Capacity = e.capacity
	return st
}

// Reset drops all cached entries and statistics.
func (e *Engine) Reset() {
	e.schedules.Reset()
	e.criticals.Reset()
	e.outcomes.Reset()
	e.speeds.Reset()
}
