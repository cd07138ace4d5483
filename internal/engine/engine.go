// Package engine is the shared concurrent evaluation engine behind the
// planner (§3.4 configuration selection) and the experiment sweeps (§4.2):
// it fans a grid of simulator configurations out over a GOMAXPROCS-sized
// worker pool and memoizes the expensive, repeatedly-shared intermediates —
// schedule construction, critical-path counts, full simulator evaluations,
// closed-form residency profiles and unit-cost free regions — keyed by their
// value-type descriptions. The pool is a bounded fan-out: the participants of a
// ForEach call claim its indices off one shared counter (pool.go).
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
	"sync/atomic"
	"time"

	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// ScheduleKey identifies a schedule construction: the memoization key for
// generated schedules and their derived analyses (critical paths, residency
// profiles). The zero F and Concat values mean "scheme defaults" (F=1,
// direct concatenation).
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
// boundary (Schedule, CriticalPath, Evaluate, Residency) canonicalizes
// first.
func (k ScheduleKey) canonical() ScheduleKey {
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
	} else if factors, err := decodeSpeed(k.Speed); err == nil && schedule.UniformSpeed(factors) {
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

// closedFormKey maps a canonical key onto its entry in the residency table:
// a fixed-placement, direct, F = 1 Chimera key, whose profile
// schedule.ChimeraConfig.Residency computes without building a schedule and
// which is the same at every N ≥ D, so N is clamped to D. ok is false for
// every other key — a list scheduler re-places ops against speed factors,
// F > 1 and doubling or halving at N > D have no closed form, baselines
// never had one — and those build their own schedule and walk it. ok is
// also CriticalPath's test for its closed form, which keeps the full N.
func (k ScheduleKey) closedFormKey() (ScheduleKey, bool) {
	if k.Scheme != "chimera" || k.Scheduler != "" || k.F > 1 || k.Concat != schedule.Direct {
		return k, false
	}
	k.N = min(k.N, k.D)
	return k, true
}

// replayEquivalent maps a canonical key onto the short key whose replay
// extends to its own, and the number of units to extend by (0: none is
// known, replay the key itself): a fixed-placement Chimera key, on
// schedule.ChimeraConfig.ReplayEquivalent's terms.
func (k ScheduleKey) replayEquivalent() (ScheduleKey, int) {
	if k.Scheme != "chimera" || k.Scheduler != "" {
		return k, 0
	}
	short, units := schedule.ChimeraConfig{D: k.D, N: k.N, F: k.F, Concat: k.Concat}.ReplayEquivalent()
	k.N = short.N
	return k, units
}

// ReplayEquivalent replays the schedule identified by key under rc and
// returns the planner's read-outs — makespan, compute-ends, grad-ready times
// — without necessarily building that schedule. It is the one place that
// decides short against full: a key with a replay-equivalent is replayed on
// the short schedule and served from it when (*schedule.Readout).Extend
// verifies the steady state on that very replay; every other key, and a
// replay that has not settled, is served by the full schedule's replay.
// Either way the answer is the full schedule's, bit for bit. uniform says rc
// prices every worker alike: per-worker speed factors almost never settle
// within two units, so they skip the attempt. Stats counts the outcomes.
func (e *Engine) ReplayEquivalent(key ScheduleKey, rc schedule.ReplayConfig, uniform bool) (*schedule.Readout, error) {
	key = key.canonical()
	if short, units := key.replayEquivalent(); uniform && units > 0 {
		g, err := e.Graph(short)
		if err != nil {
			return nil, err
		}
		r := g.Readout(rc)
		if r.Extend(units) {
			e.replays[replayExtended].Add(1)
			return r, nil
		}
		r.Release()
		e.replays[replayRefused].Add(1)
	}
	e.replays[replayFull].Add(1)
	g, err := e.Graph(key)
	if err != nil {
		return nil, err
	}
	return g.Readout(rc), nil
}

// keyOf returns the ScheduleKey describing an already-built schedule; it is
// the inverse of buildSchedule and guards the cache's canonical-key
// invariant (see the engine tests).
func keyOf(s *schedule.Schedule) ScheduleKey {
	k := ScheduleKey{
		Scheme:    s.Scheme,
		D:         s.D,
		N:         s.N,
		Scheduler: s.Scheduler,
		Speed:     sim.EncodeSpeedFactors(s.PlacementSpeed),
	}
	if s.Scheme == "chimera" {
		k.F = s.F
		// Backward halving reuses the doubled-forward op structure, so a
		// halved schedule may set both flags: check HalvedBackward first.
		switch {
		case s.HalvedBackward:
			k.Concat = schedule.BackwardHalving
		case s.DoubledForward:
			k.Concat = schedule.ForwardDoubling
		}
	}
	return k
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

// decodedSpeed interns sim.DecodeSpeedFactors results keyed by the
// canonical encoded string, so key canonicalization and sim.Config
// materialization do zero decoding and zero allocation after a factor
// string's first use. Interned slices are shared across evaluations and
// must be treated as read-only (the simulator only reads them).
var decodedSpeed sync.Map // string → *decodedFactors

type decodedFactors struct {
	factors []float64
	err     error
}

func decodeSpeed(enc string) ([]float64, error) {
	if enc == "" {
		return nil, nil
	}
	if v, ok := decodedSpeed.Load(enc); ok {
		d := v.(*decodedFactors)
		return d.factors, d.err
	}
	factors, err := sim.DecodeSpeedFactors(enc)
	v, _ := decodedSpeed.LoadOrStore(enc, &decodedFactors{factors, err})
	d := v.(*decodedFactors)
	return d.factors, d.err
}

// Config materializes the sim.Config for this spec around a built schedule.
// The speed-factor string must be valid (callers validate at construction);
// Evaluate surfaces a decode error as the outcome's Err.
func (sp Spec) Config(s *schedule.Schedule) (sim.Config, error) {
	factors, err := decodeSpeed(sp.SpeedFactors)
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
	// Replays count ReplayEquivalent's answers: served from the short
	// schedule's extended replay, or from the full schedule's. Refused counts
	// the full replays that followed a short one whose check failed.
	ReplaysExtended, ReplaysFull, ReplaysRefused uint64
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

	// refCore routes evaluations through the retained reference replay
	// interpreter (see ReferenceCore) instead of the compiled graph core.
	refCore bool

	schedules   *Memo[ScheduleKey, schedOutcome]
	criticals   *Memo[ScheduleKey, critOutcome]
	outcomes    *Memo[Spec, Outcome]
	residencies *Memo[ScheduleKey, resOutcome]

	// replays counts ReplayEquivalent's answers by replayPaths index.
	replays [len(replayPaths)]atomic.Uint64
	// obsReg is the registry attached by Observe (nil = uninstrumented);
	// met holds the handles initObserve resolves from it.
	obsReg *obs.Registry
	met    *engMetrics
}

// replayPaths names how ReplayEquivalent served a replay (the path label of
// engine_replays_total), indexed by the constants below.
var replayPaths = [...]string{"extended", "full", "refused"}

const (
	replayExtended = iota
	replayFull
	replayRefused
)

// schedOutcome is a schedule memo entry: a key in closedFormKey's scope
// holds its graph g, whose Source builds the schedule on first use; every
// other key holds its schedule s.
type schedOutcome struct {
	s   *schedule.Schedule
	g   *schedule.Graph
	err error
}

type critOutcome struct {
	cf, cb int
	err    error
}

type resOutcome struct {
	r   *schedule.Residency
	err error
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

// ReferenceCore routes every simulator evaluation through the retained
// map-interpreter replay core (internal/refinterp) instead of the compiled
// dependency-graph core. This is the seed implementation's evaluation path,
// kept runnable as the oracle: bench/ generates its goldens through it and
// tests assert the optimized core's equivalence. Never use it on a hot path.
func ReferenceCore() Option {
	return func(e *Engine) { e.refCore = true }
}

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
	e.residencies = NewMemoCap[ScheduleKey, resOutcome](e.capacity)
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
// use. The returned schedule is shared: callers must not mutate it. A key in
// closedFormKey's scope memoizes its graph, not its schedule (Graph); its
// schedule is built on the first call here, with Graph() returning that same
// graph.
func (e *Engine) Schedule(key ScheduleKey) (*schedule.Schedule, error) {
	out := e.schedule(key)
	if out.g != nil {
		return out.g.Source(), nil
	}
	return out.s, out.err
}

// schedule is the schedule memo's entry for key, constructed on first use:
// the graph schedule.ChimeraConfig.Graph writes from the slot formulas for a
// key in closedFormKey's scope, the built schedule for every other key.
func (e *Engine) schedule(key ScheduleKey) schedOutcome {
	key = key.canonical()
	if out, ok := e.schedules.Cached(key); ok {
		return out
	}
	m := e.met
	return e.schedules.Do(key, func() schedOutcome {
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		var out schedOutcome
		if _, ok := key.closedFormKey(); ok {
			out.g, out.err = schedule.ChimeraConfig{D: key.D, N: key.N, F: key.F}.Graph()
		} else {
			out.s, out.err = buildSchedule(key)
		}
		if m != nil {
			m.schedule.Since(start)
		}
		return out
	})
}

func buildSchedule(key ScheduleKey) (*schedule.Schedule, error) {
	if key.Scheduler != "" {
		factors, err := decodeSpeed(key.Speed)
		if err != nil {
			return nil, err
		}
		return schedule.Build(schedule.Spec{
			Scheme: key.Scheme, Scheduler: key.Scheduler,
			D: key.D, N: key.N, F: key.F, Concat: key.Concat,
			SpeedFactors: factors,
		})
	}
	if key.Scheme == "chimera" {
		return schedule.Chimera(schedule.ChimeraConfig{
			D: key.D, N: key.N, F: key.F, Concat: key.Concat,
		})
	}
	return schedule.ByName(key.Scheme, key.D, key.N)
}

// Graph returns the compiled dependency-graph IR for the schedule
// identified by key, one per key: a key in closedFormKey's scope memoizes
// the graph itself, which builds no op list; every other key's graph rides
// its memoized schedule, which compiles itself once and caches the result.
func (e *Engine) Graph(key ScheduleKey) (*schedule.Graph, error) {
	out := e.schedule(key)
	if out.g != nil || out.err != nil {
		return out.g, out.err
	}
	return out.s.Graph()
}

// Residency returns the activation-residency profile of the schedule
// identified by key — what (*sim.MemoryFit).Fits prices. A fixed-placement,
// direct, F = 1 Chimera key builds nothing: its profile is closed-form
// (schedule.ChimeraConfig.Residency) and memoized in the residency table
// under closedFormKey, one entry per min(N, D). Every other key's profile
// is walked once on its own memoized schedule, which caches it as it does
// its graph.
func (e *Engine) Residency(key ScheduleKey) (*schedule.Residency, error) {
	key = key.canonical()
	if ck, ok := key.closedFormKey(); ok {
		if out, ok := e.residencies.Cached(ck); ok {
			return out.r, out.err
		}
		out := e.residencies.Do(ck, func() resOutcome {
			r, err := schedule.ChimeraConfig{D: ck.D, N: ck.N, F: ck.F}.Residency()
			return resOutcome{r, err}
		})
		return out.r, out.err
	}
	s, err := e.Schedule(key)
	if err != nil {
		return nil, err
	}
	return s.Residency(), nil
}

// CriticalPath returns the (Cf, Cb) critical-path counts for the schedule
// identified by key (§3.4's Eq. 1 inputs), memoized under the full key. A
// key in closedFormKey's scope builds, compiles and replays nothing:
// schedule.ChimeraConfig.CriticalPath computes its counts. Every other key
// runs schedule.CriticalPath's two probes on its own memoized schedule.
func (e *Engine) CriticalPath(key ScheduleKey) (cf, cb int, err error) {
	key = key.canonical()
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
		if _, ok := key.closedFormKey(); ok {
			out.cf, out.cb, _, out.err = schedule.ChimeraConfig{D: key.D, N: key.N, F: key.F}.CriticalPath()
		} else if s, err := e.Schedule(key); err != nil {
			out.err = err
		} else {
			out.cf, out.cb, out.err = schedule.CriticalPath(s)
		}
		if m != nil {
			m.critical.Since(start)
		}
		return out
	})
	return out.cf, out.cb, out.err
}

// FreeRegions returns the free regions (schedule.FreeRegions) of the
// schedule identified by key replayed under the uniform cost model cm. A key
// in closedFormKey's scope builds and replays nothing for a cost model
// schedule.ChimeraConfig.FreeRegions covers, Eq. 1's unit costs among them:
// the table is closed-form and allocation-free. Every other key or cost
// model replays through ReplayEquivalent, short or full as it decides.
func (e *Engine) FreeRegions(key ScheduleKey, cm schedule.CostModel) (schedule.FreeRegions, error) {
	key = key.canonical()
	if _, ok := key.closedFormKey(); ok {
		if f, ok, err := (schedule.ChimeraConfig{D: key.D, N: key.N, F: key.F}).FreeRegions(cm); ok || err != nil {
			return f, err
		}
	}
	r, err := e.ReplayEquivalent(key, cm.ReplayConfig(), true)
	if err != nil {
		return schedule.FreeRegions{}, err
	}
	defer r.Release()
	return r.FreeRegions(), nil
}

// Evaluate runs (or recalls) one simulator evaluation. With observability
// attached, a memo miss records its compute time in engine_evaluate_seconds
// and a hit records the time spent recalling (including any wait on another
// goroutine's in-flight computation) in engine_memo_wait_seconds.
func (e *Engine) Evaluate(spec Spec) Outcome {
	spec.Sched = spec.Sched.canonical()
	m := e.met
	if m == nil {
		// Completed-hit fast path: no closure, no allocation — repeat
		// lookups of an interned key cost one map probe.
		if out, ok := e.outcomes.Cached(spec); ok {
			return out
		}
		return e.outcomes.Do(spec, func() Outcome { return e.evaluate(spec) })
	}
	start := time.Now()
	if out, ok := e.outcomes.Cached(spec); ok {
		m.wait.Since(start)
		return out
	}
	computed := false
	out := e.outcomes.Do(spec, func() Outcome {
		computed = true
		return e.evaluate(spec)
	})
	if computed {
		m.evaluate.Since(start)
	} else {
		m.wait.Since(start)
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
	cfg.ReferenceReplay = e.refCore
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
	st.ReplaysExtended, st.ReplaysFull, st.ReplaysRefused = e.replays[replayExtended].Load(), e.replays[replayFull].Load(), e.replays[replayRefused].Load()
	return st
}

// Reset drops all cached entries and statistics.
func (e *Engine) Reset() {
	e.schedules.Reset()
	e.criticals.Reset()
	e.outcomes.Reset()
	e.residencies.Reset()
	for i := range e.replays {
		e.replays[i].Store(0)
	}
}
