package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/httpd"
	"chimera/internal/obs"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/trace"
)

// Config configures New.
type Config struct {
	// Workers sizes the engine's worker pool (0 = GOMAXPROCS).
	Workers int
	// CacheCapacity bounds each engine memo table with LRU eviction
	// (0 = unbounded). A daemon should set this: it runs forever, so the
	// batch default of never evicting would grow without limit.
	CacheCapacity int
	// MaxInflight bounds concurrently executing heavy requests (plan,
	// simulate, analyze, render); excess requests are shed with 429 so a
	// traffic spike degrades gracefully instead of exhausting memory.
	// 0 selects 4×GOMAXPROCS.
	MaxInflight int
	// DrainTimeout bounds graceful shutdown's wait for in-flight requests
	// (0 = 15s).
	DrainTimeout time.Duration
	// DrainDelay holds the listener open (still serving, but with /readyz
	// reporting draining) for this long after shutdown begins, giving a
	// router or load balancer time to observe the readiness flip and stop
	// routing new work before connections start being refused (0 = none).
	DrainDelay time.Duration
	// SnapshotPath is where POST /v1/cache/snapshot writes the response-cache
	// snapshot ("" disables the endpoint). The path is fixed at construction
	// — clients trigger snapshots but never choose filesystem locations.
	SnapshotPath string
	// Engine, when non-nil, supplies a caller-owned engine and overrides
	// Workers/CacheCapacity for the engine and the fleet allocator's plan
	// memo, which takes the engine's bound; the response caches keep
	// CacheCapacity (used by tests and embedders that want to share the
	// process-wide Default engine). A caller-owned engine keeps
	// whatever instrumentation it was built with; only server-constructed
	// engines register their engine_ series on the server's registry.
	Engine *engine.Engine
	// Registry, when non-nil, supplies a caller-owned metric registry; the
	// server otherwise creates its own. All serve_/engine_/fleet_ series
	// register here and GET /metrics serves it in Prometheus text format.
	Registry *obs.Registry
	// FlightRecorder sizes the ring of recent request spans behind
	// GET /debug/requests (0 = 256 spans; negative disables recording).
	FlightRecorder int
	// EnablePprof mounts the standard runtime profiles under /debug/pprof/.
	// Off by default: profiles reveal operational detail and cost CPU.
	EnablePprof bool
	// AccessLog, when non-nil, receives one log line per request.
	AccessLog io.Writer
	// LogFormat selects the access-log encoding: "text" (default) or
	// "json" (one JSON object per line, stable field order).
	LogFormat string
}

// Server routes the HTTP/JSON API onto a shared evaluation engine. Build
// with New; the zero value is not usable. The embedded chassis supplies
// Handler, Run, ListenAndServe, Serve (drain: /readyz answers 503 and
// /healthz reports "draining" while the listener stays open for
// Config.DrainDelay, then in-flight requests get Config.DrainTimeout),
// BeginDrain and Draining.
type Server struct {
	*httpd.Daemon
	eng       *engine.Engine
	admission *httpd.Admission

	// caches are the response caches of the cached endpoints, in snapshot
	// order; planCache is caches[0] with its key type, for /v1/plan:batch.
	caches    []responseCache
	planCache *cache[perfmodel.PlanRequest]

	// allocator carries the fleet allocator's plan memo across requests
	// (it shares the server's engine underneath).
	allocator *fleet.Allocator

	// started anchors /healthz's uptime report.
	started time.Time

	// snapshotPath is Config.SnapshotPath; the snapshot bookkeeping feeds
	// the serve_snapshot_* series.
	snapshotPath     string
	lastSnapshotNano atomic.Int64
	snapshotsWritten atomic.Uint64
	restoredEntries  atomic.Int64

	// obs is the serving tier's observability state: registry, span flight
	// recorder, per-endpoint instrument handles, access log. Always set by
	// New.
	obs *serveObs

	plan, planBatch, fleetPlan, fleetSim, simulate, analyze, schedules, render, health, ready, stats, cacheSnapshot atomic.Uint64
	shed, clientErrors, serverErrors                                                                                atomic.Uint64
}

// New builds a Server and its engine.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	eng := engine.ForDaemon(cfg.Engine, cfg.Registry, cfg.Workers, cfg.CacheCapacity)
	mux := http.NewServeMux()
	s := &Server{
		Daemon:       httpd.NewDaemon(mux, httpd.Lifecycle{DrainDelay: cfg.DrainDelay, ShutdownTimeout: cfg.DrainTimeout}),
		eng:          eng,
		snapshotPath: cfg.SnapshotPath,
		allocator:    fleet.NewAllocator(eng),
		started:      time.Now(),
	}
	s.admission = httpd.NewAdmission(cfg.MaxInflight, "server at capacity, retry later",
		func() { s.shed.Add(1) }, s.RetryAfter)
	s.planCache = newCache(s, planEndpoint, cfg.CacheCapacity, &s.plan)
	s.caches = []responseCache{
		s.planCache,
		newCache(s, fleetPlanEndpoint, cfg.CacheCapacity, &s.fleetPlan),
		newCache(s, fleetSimEndpoint, cfg.CacheCapacity, &s.fleetSim),
	}
	s.initObserve(cfg)
	s.allocator.Observe(cfg.Registry)
	for _, c := range s.caches {
		mux.HandleFunc("POST "+c.info().path, s.instrument(c.info().name, s.admission.Wrap(c.handle)))
	}
	mux.HandleFunc("POST /v1/plan:batch", s.instrument("plan_batch", s.admission.Wrap(s.handlePlanBatch)))
	mux.HandleFunc("POST /v1/cache/snapshot", s.instrument("cache_snapshot", s.admission.Wrap(s.handleCacheSnapshot)))
	mux.HandleFunc("GET /readyz", s.instrument("ready", s.handleReady))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.admission.Wrap(s.handleSimulate)))
	mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.admission.Wrap(s.handleAnalyze)))
	mux.HandleFunc("POST /v1/render", s.instrument("render", s.admission.Wrap(s.handleRender)))
	mux.HandleFunc("GET /v1/schedules", s.instrument("schedules", s.handleSchedules))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.instrument("health", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", httpd.Metrics(cfg.Registry)))
	mux.HandleFunc("GET /debug/requests", s.instrument("debug_requests", s.handleDebugRequests))
	if cfg.EnablePprof {
		httpd.MountPprof(mux)
	}
	return s
}

// Engine returns the server's evaluation engine.
func (s *Server) Engine() *engine.Engine { return s.eng }

// MaxInflight reports the admission-control bound.
func (s *Server) MaxInflight() int { return s.admission.Max() }

// writeJSON replies through the chassis, counting an encoding failure as a
// server error.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if !httpd.WriteJSON(w, status, v) {
		s.serverErrors.Add(1)
	}
}

// badRequest replies 400 with the validation error.
func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.clientErrors.Add(1)
	httpd.WriteError(w, http.StatusBadRequest, err.Error())
}

// unprocessable replies 422: the request was well-formed but has no
// feasible/constructible answer (e.g. no configuration fits memory).
func (s *Server) unprocessable(w http.ResponseWriter, err error) {
	s.clientErrors.Add(1)
	httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
}

// handlePlanBatch answers /v1/plan:batch: N plan problems validated
// together, charged one admission slot, and evaluated as a single engine
// fan-out (perfmodel.PlanBatchOn concatenates every item's candidate grid
// into one sweep over the worker pool, amortizing pool traversal and memo
// lookups). Results are per-item and byte-identical to N sequential
// /v1/plan calls: plan bodies come from the same codec path and land in the
// same response cache, errors carry the same message a sequential call
// would have returned.
func (s *Server) handlePlanBatch(w http.ResponseWriter, r *http.Request) {
	s.planBatch.Add(1)
	span := obs.SpanFrom(r.Context())
	span.StartPhase("decode")
	var req BatchPlanRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	n := len(req.Requests)
	if n == 0 {
		s.badRequest(w, errors.New("plan batch: requests must be non-empty"))
		return
	}
	if n > MaxBatchItems {
		s.badRequest(w, fmt.Errorf("plan batch: %d requests exceed the limit %d", n, MaxBatchItems))
		return
	}
	s.obs.batchItems.Observe(time.Duration(n) * time.Second)
	span.StartPhase("resolve")
	resolved := make([]perfmodel.PlanRequest, n)
	resolveErr := make([]error, n)
	for i, item := range req.Requests {
		resolved[i], resolveErr[i] = item.Resolve()
	}
	span.StartPhase("cache")
	outs := make([]planOutcome, n)
	have := make([]bool, n)
	// Distinct cache misses, deduplicated: repeated items plan once.
	missIdx := make(map[perfmodel.PlanRequest]int)
	var missReqs []perfmodel.PlanRequest
	for i := range resolved {
		if resolveErr[i] != nil {
			continue
		}
		if out, ok := s.planCache.memo.Cached(resolved[i]); ok {
			outs[i], have[i] = out, true
		} else if _, dup := missIdx[resolved[i]]; !dup {
			missIdx[resolved[i]] = len(missReqs)
			missReqs = append(missReqs, resolved[i])
		}
	}
	computed := len(missReqs) > 0
	if computed {
		span.StartPhase("plan")
		predsList, errsList := perfmodel.PlanBatchOn(s.eng, missReqs)
		span.StartPhase("encode")
		missOuts := make([]planOutcome, len(missReqs))
		for j := range missReqs {
			if errsList[j] != nil {
				missOuts[j] = planOutcome{err: errsList[j]}
				continue
			}
			raw, err := json.Marshal(NewPlanResponse(missReqs[j].Model.Name, missReqs[j].P, missReqs[j].MiniBatch, predsList[j]))
			if err != nil {
				missOuts[j] = planOutcome{err: err}
				continue
			}
			missOuts[j] = planOutcome{body: raw}
		}
		// Publish through the cache's single-flight front door: a
		// computation already in flight for the same key wins and its value
		// is what this batch serves, exactly as a sequential call would.
		for i := range resolved {
			if resolveErr[i] != nil || have[i] {
				continue
			}
			j, ok := missIdx[resolved[i]]
			if !ok {
				continue
			}
			outs[i] = s.planCache.memo.Do(resolved[i], func() planOutcome { return missOuts[j] })
			have[i] = true
		}
	}
	span.EndPhase()
	span.SetAttr("cache", cacheDisposition(computed))
	resp := BatchPlanResponse{Items: n, Results: make([]BatchPlanItem, n)}
	for i := range resp.Results {
		switch {
		case resolveErr[i] != nil:
			s.clientErrors.Add(1)
			resp.Results[i].Error = resolveErr[i].Error()
		case outs[i].err != nil:
			s.clientErrors.Add(1)
			resp.Results[i].Error = outs[i].err.Error()
		default:
			resp.Results[i].Plan = json.RawMessage(outs[i].body)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.simulate.Add(1)
	span := obs.SpanFrom(r.Context())
	span.StartPhase("decode")
	var req SimulateRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	// Warm the schedule memo under its own phase so the span separates
	// schedule construction from the replay proper; Evaluate below reuses
	// the memoized schedule (and surfaces the same error on failure).
	span.StartPhase("schedule_build")
	if _, err := s.eng.Schedule(spec.Sched); err != nil {
		s.unprocessable(w, err)
		return
	}
	span.StartPhase("replay")
	out := s.eng.Evaluate(spec)
	if out.Err != nil {
		s.unprocessable(w, out.Err)
		return
	}
	span.StartPhase("encode")
	s.writeJSON(w, http.StatusOK, SimulateResponse{out.Result, out.Recompute})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.analyze.Add(1)
	span := obs.SpanFrom(r.Context())
	span.StartPhase("decode")
	var req AnalyzeRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	key, err := req.Schedule.Key()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	span.StartPhase("schedule_build")
	sched, err := s.eng.Schedule(key)
	if err != nil {
		s.unprocessable(w, err)
		return
	}
	span.StartPhase("analyze")
	a, err := schedule.Analyze(sched)
	if err != nil {
		s.unprocessable(w, err)
		return
	}
	span.StartPhase("encode")
	s.writeJSON(w, http.StatusOK, a)
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	s.render.Add(1)
	span := obs.SpanFrom(r.Context())
	span.StartPhase("decode")
	var req RenderRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	key, err := req.Schedule.Key()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	cm, err := req.CostModel()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	format := req.Format
	if format == "" {
		format = "ascii"
	}
	switch format {
	case "ascii", "svg", "chrome":
	default:
		s.badRequest(w, errUnknownFormat(format))
		return
	}
	span.StartPhase("schedule_build")
	sched, err := s.eng.Schedule(key)
	if err != nil {
		s.unprocessable(w, err)
		return
	}
	span.StartPhase("render")
	var content string
	switch format {
	case "ascii":
		content, err = trace.ASCII(sched, cm)
	case "svg":
		content, err = trace.SVG(sched, cm)
	case "chrome":
		var raw []byte
		raw, err = trace.ChromeTrace(sched, cm)
		content = string(raw)
	}
	if err != nil {
		s.unprocessable(w, err)
		return
	}
	span.StartPhase("encode")
	s.writeJSON(w, http.StatusOK, RenderResponse{Format: format, Content: content})
}

func (s *Server) handleSchedules(w http.ResponseWriter, r *http.Request) {
	s.schedules.Add(1)
	s.writeJSON(w, http.StatusOK, SchedulesResponse{
		Schemes:     Schemes(),
		Schedulers:  Schedulers(),
		ConcatModes: ConcatModes(),
		Models:      ModelPresets(),
		Platforms:   PlatformPresets(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.stats.Add(1)
	s.writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.health.Add(1)
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:        status,
		Version:       BuildVersion(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// handleReady is the readiness half of the health split: 200 while the
// server accepts new work, 503 from the moment graceful shutdown begins.
// Liveness (/healthz) keeps answering 200 throughout, so an orchestrator
// can tell "busy draining" from "dead".
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.ready.Add(1)
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, ReadyResponse{Status: "ready"})
}

// handleCacheSnapshot writes the response caches to the path fixed at
// construction (Config.SnapshotPath). The client triggers the snapshot but
// never names the file — accepting paths over HTTP would let any client
// write anywhere the daemon can.
func (s *Server) handleCacheSnapshot(w http.ResponseWriter, r *http.Request) {
	s.cacheSnapshot.Add(1)
	span := obs.SpanFrom(r.Context())
	if s.snapshotPath == "" {
		s.unprocessable(w, errors.New("cache snapshot: no snapshot path configured (start chimera-serve with -snapshot)"))
		return
	}
	span.StartPhase("snapshot")
	st, err := s.WriteSnapshot(s.snapshotPath)
	span.EndPhase()
	if err != nil {
		s.serverErrors.Add(1)
		httpd.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, SnapshotResponse{Path: s.snapshotPath, Entries: st.Entries, Bytes: st.Bytes})
}

// BuildVersion reports the binary's build identity for /healthz and the
// daemon's startup log: the main module version when stamped, refined by
// the VCS revision when the binary was built from a checkout.
func BuildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := info.Main.Version
	if v == "" {
		v = "unknown"
	}
	var rev, dirty string
	for _, set := range info.Settings {
		switch set.Key {
		case "vcs.revision":
			rev = set.Value
		case "vcs.modified":
			if set.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return v + " (" + rev + dirty + ")"
	}
	return v
}

// Snapshot returns the current service counters (what /v1/stats serves).
// The legacy counter fields are unchanged; the metrics field appends the
// registry's full snapshot (counters, gauges, histogram quantiles).
func (s *Server) Snapshot() StatsResponse {
	resp := StatsResponse{
		Requests: RequestCounts{
			Plan: s.plan.Load(), PlanBatch: s.planBatch.Load(),
			FleetPlan: s.fleetPlan.Load(), FleetSimulate: s.fleetSim.Load(),
			Simulate: s.simulate.Load(),
			Analyze:  s.analyze.Load(), Schedules: s.schedules.Load(),
			Render: s.render.Load(), Health: s.health.Load(), Ready: s.ready.Load(),
			Stats: s.stats.Load(), CacheSnapshot: s.cacheSnapshot.Load(),
		},
		Shed:         s.shed.Load(),
		ClientErrors: s.clientErrors.Load(),
		ServerErrors: s.serverErrors.Load(),
		MaxInflight:  s.admission.Max(),
		Engine:       NewEngineStats(s.eng.WorkerCount(), s.eng.Stats()),
	}
	for _, c := range s.caches {
		*c.info().statField(&resp) = c.table()
	}
	snap := s.obs.reg.Snapshot()
	resp.Metrics = &snap
	return resp
}

type errUnknownFormat string

func (e errUnknownFormat) Error() string {
	return "render: unknown format \"" + string(e) + "\" (have ascii, svg, chrome)"
}
