package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/obs"
)

// serveObs is the serving tier's observability state: the registry, the
// span flight recorder, the request-ID generator, and the optional access
// log.
type serveObs struct {
	reg      *obs.Registry
	recorder *obs.Recorder

	// batchItems records /v1/plan:batch sizes. The obs histogram buckets
	// durations, so a batch of n items is observed as n seconds — the
	// "seconds" quantiles read directly as item counts.
	batchItems *obs.Histogram

	// idPrefix + idSeq generate request IDs (prefix-000001); the random
	// prefix keeps IDs from colliding across server restarts.
	idPrefix string
	idSeq    atomic.Uint64

	// accessLog serializes request log lines ("json" or "text" format);
	// nil writer disables logging.
	logMu     sync.Mutex
	logWriter interface{ Write([]byte) (int, error) }
	logFormat string
}

// cacheLabels are the dispositions each endpoint's latency histogram is
// split by: "hit" and "miss" for the cached endpoints, "none" for endpoints
// without a response cache (and for shed requests, which never reach a
// handler).
var cacheLabels = []string{"hit", "miss", "none"}

// initObserve builds the server's observability state and registers the
// serving tier's series. Counters that the server already maintains as
// atomics (per-endpoint request counts, shed, error classes) register as
// read-through CounterFuncs, so the request path pays nothing for them.
func (s *Server) initObserve(cfg Config) {
	reg := cfg.Registry
	depth := cfg.FlightRecorder
	if depth == 0 {
		depth = 256
	}
	var recorder *obs.Recorder
	if depth > 0 {
		recorder = obs.NewRecorder(depth)
	}
	var prefix [4]byte
	rand.Read(prefix[:])
	o := &serveObs{
		reg:       reg,
		recorder:  recorder,
		idPrefix:  hex.EncodeToString(prefix[:]),
		logWriter: cfg.AccessLog,
		logFormat: cfg.LogFormat,
	}

	reg.GaugeFunc("serve_inflight", "requests holding an admission slot",
		func() float64 { return float64(s.admission.Inflight()) })
	reg.GaugeFunc("serve_max_inflight", "admission-control slot bound",
		func() float64 { return float64(s.admission.Max()) })
	reg.CounterFunc("serve_shed_total", "requests shed by admission control",
		s.shed.Load)
	reg.CounterFunc("serve_client_errors_total", "4xx responses",
		s.clientErrors.Load)
	reg.CounterFunc("serve_server_errors_total", "5xx responses",
		s.serverErrors.Load)
	for ep, src := range map[string]*atomic.Uint64{
		"plan": &s.plan, "plan_batch": &s.planBatch,
		"fleet_plan": &s.fleetPlan, "fleet_simulate": &s.fleetSim,
		"simulate": &s.simulate, "analyze": &s.analyze, "schedules": &s.schedules,
		"render": &s.render, "health": &s.health, "ready": &s.ready,
		"stats": &s.stats, "cache_snapshot": &s.cacheSnapshot,
	} {
		reg.CounterFunc("serve_requests_total", "requests reaching each handler",
			src.Load, obs.L("endpoint", ep))
	}
	for _, c := range s.caches {
		c := c
		label := obs.L("cache", c.info().name)
		reg.CounterFunc("serve_cache_hits_total", "response-cache hits",
			func() uint64 { return c.table().Hits }, label)
		reg.CounterFunc("serve_cache_misses_total", "response-cache misses",
			func() uint64 { return c.table().Misses }, label)
		reg.CounterFunc("serve_cache_evictions_total", "response-cache LRU evictions",
			func() uint64 { return c.table().Evictions }, label)
		reg.GaugeFunc("serve_cache_entries", "response-cache resident entries",
			func() float64 { return float64(c.table().Entries) }, label)
		hits, misses := c.resolveCounts()
		reg.CounterFunc("serve_resolve_memo_hits_total", "bodies whose cache key the resolve memo held",
			hits.Load, label)
		reg.CounterFunc("serve_resolve_memo_misses_total", "bodies resolved to their cache key",
			misses.Load, label)
	}
	o.batchItems = reg.Histogram("serve_batch_items",
		"items per /v1/plan:batch request (bucketed as seconds: n items = n s)")
	reg.GaugeFunc("serve_ready", "1 while accepting new work, 0 once draining",
		func() float64 {
			if s.Draining() {
				return 0
			}
			return 1
		})
	reg.GaugeFunc("serve_snapshot_age_seconds", "age of the newest cache snapshot written or restored (0 = none)",
		s.SnapshotAgeSeconds)
	reg.CounterFunc("serve_snapshots_written_total", "cache snapshots written to disk",
		s.snapshotsWritten.Load)
	reg.GaugeFunc("serve_snapshot_restored_entries", "cache entries inserted by the last snapshot restore",
		func() float64 { return float64(s.restoredEntries.Load()) })
	if recorder != nil {
		reg.CounterFunc("serve_spans_recorded_total", "spans seen by the flight recorder",
			func() uint64 { return recorder.Total() })
	}
	s.obs = o
}

// nextRequestID mints a new request ID unless the client supplied a valid
// one.
func (o *serveObs) nextRequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return o.idPrefix + "-" + strconv.FormatUint(o.idSeq.Add(1), 10)
}

// validRequestID reports whether a client's ID may be honored: 1–128 bytes
// of [A-Za-z0-9._:-]. The text access log writes the ID unquoted, so a space
// or newline in it could forge the fields that follow.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps a handler with the per-request observability envelope:
// a request ID (minted or honored from X-Request-Id, echoed back in the
// response header), a phase-recording span threaded through the request
// context and retired into the flight recorder, the endpoint latency
// histogram split by cache disposition, and the optional access log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	// Resolved once per route, so the request path never touches the
	// registry mutex.
	byCache := make(map[string]*obs.Histogram, len(cacheLabels))
	for _, c := range cacheLabels {
		byCache[c] = s.obs.reg.Histogram("serve_request_duration_seconds",
			"request latency by endpoint and response-cache disposition",
			obs.L("endpoint", endpoint), obs.L("cache", c))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.obs.nextRequestID(r)
		w.Header().Set("X-Request-Id", id)
		span := obs.NewSpan(endpoint, id)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(obs.ContextWithSpan(r.Context(), span)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		cache := span.Attr("cache")
		if _, ok := byCache[cache]; !ok {
			cache = "none"
		}
		byCache[cache].Since(start)
		span.SetAttr("status", strconv.Itoa(sw.status))
		rec := span.Finish()
		s.obs.recorder.Record(rec)
		s.obs.logRequest(r, id, sw.status, cache, rec.DurationMS)
	}
}

// logRequest emits one access-log line. JSON lines are marshalled from a
// fixed struct so field order is stable; text lines are a single
// space-separated record. The writer is serialized by a mutex — handlers on
// different goroutines must not interleave partial lines.
func (o *serveObs) logRequest(r *http.Request, id string, status int, cache string, durMS float64) {
	if o.logWriter == nil {
		return
	}
	var line []byte
	if o.logFormat == "json" {
		line, _ = json.Marshal(struct {
			Time   string  `json:"time"`
			ID     string  `json:"id"`
			Method string  `json:"method"`
			Path   string  `json:"path"`
			Status int     `json:"status"`
			DurMS  float64 `json:"dur_ms"`
			Cache  string  `json:"cache,omitempty"`
			Remote string  `json:"remote,omitempty"`
		}{
			Time:   time.Now().UTC().Format(time.RFC3339Nano),
			ID:     id,
			Method: r.Method,
			Path:   r.URL.Path,
			Status: status,
			DurMS:  durMS,
			Cache:  cache,
			Remote: r.RemoteAddr,
		})
		line = append(line, '\n')
	} else {
		line = []byte(fmt.Sprintf("%s id=%s %s %s status=%d dur_ms=%.3f cache=%s\n",
			time.Now().UTC().Format(time.RFC3339), id, r.Method, r.URL.Path, status, durMS, cache))
	}
	o.logMu.Lock()
	o.logWriter.Write(line)
	o.logMu.Unlock()
}

// DebugRequestsResponse is the /debug/requests reply: the flight
// recorder's retained spans, newest first.
type DebugRequestsResponse struct {
	// Total counts every span ever recorded; Capacity is the ring size.
	Total    uint64           `json:"total"`
	Capacity int              `json:"capacity"`
	Requests []obs.SpanRecord `json:"requests"`
}

// handleDebugRequests dumps the flight recorder.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	rec := s.obs.recorder
	resp := DebugRequestsResponse{
		Total:    rec.Total(),
		Capacity: rec.Cap(),
		Requests: rec.Snapshot(),
	}
	if resp.Requests == nil {
		resp.Requests = []obs.SpanRecord{}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Registry exposes the server's metric registry (for embedders that want
// to add their own series or snapshot programmatically).
func (s *Server) Registry() *obs.Registry { return s.obs.reg }
