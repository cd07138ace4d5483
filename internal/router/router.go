package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/httpd"
	"chimera/internal/obs"
	"chimera/internal/serve"
)

// Config configures New.
type Config struct {
	// Replicas are the chimera-serve base URLs to shard across
	// (e.g. "http://127.0.0.1:8642"). At least one is required.
	Replicas []string
	// VNodes is the ring's virtual-node count per replica
	// (0 = DefaultVNodes).
	VNodes int
	// MaxAttempts bounds how many distinct replicas one request may try —
	// the key's owner plus MaxAttempts-1 failovers (0 = min(3, len(Replicas))).
	MaxAttempts int
	// HealthInterval is the /readyz poll period (0 = 2s). The health loop
	// only runs once Start is called; until the first sweep every replica
	// is assumed ready, so a router can serve immediately.
	HealthInterval time.Duration
	// HealthTimeout bounds each /readyz probe (0 = 1s).
	HealthTimeout time.Duration
	// Client issues the forwarded requests (nil = a client with a 60s
	// timeout, since plans on a cold engine take seconds, that keeps as
	// many idle connections per replica as a default replica admits heavy
	// requests: httpd.DefaultMaxInflight).
	Client *http.Client
	// Registry, when non-nil, receives the router_* series; the router
	// otherwise creates its own. GET /metrics serves it either way.
	Registry *obs.Registry
}

// replicaState is the router's per-replica view: readiness plus the
// replica-labelled metric handles (pre-resolved so the request path never
// touches the registry mutex).
type replicaState struct {
	base string
	// ready is flipped by the health loop (/readyz 200 → true; 503,
	// transport error, or non-2xx → false) and pessimistically by the
	// forwarding path on transport errors, so a crashed replica is routed
	// around before the next poll. Both writers sequence their marks
	// through the observation epoch below.
	ready     atomic.Bool
	requests  *obs.Counter   // forwards answered by this replica
	errors    *obs.Counter   // transport errors + 5xx from this replica
	failovers *obs.Counter   // requests that failed over away from this replica
	upGauge   *obs.Gauge     // 1 ready / 0 not
	latency   *obs.Histogram // forward latency through this replica

	// obsMu guards epoch, which sequences readiness observations: every
	// observer captures the epoch before issuing I/O (beginObservation)
	// and its result only lands if no other observation applied in the
	// meantime (applyObservation). Without this, a forward whose transport
	// error surfaces after a concurrent /readyz probe succeeded would
	// overwrite that newer evidence and flap a healthy replica down — the
	// error predates the probe's 200, so the 200 must win.
	obsMu sync.Mutex
	epoch uint64
}

// beginObservation records the start of a readiness observation (a health
// probe or a forward attempt) and returns the epoch to pass to
// applyObservation once the observation's I/O resolves.
func (rs *replicaState) beginObservation() uint64 {
	rs.obsMu.Lock()
	defer rs.obsMu.Unlock()
	return rs.epoch
}

// applyObservation applies a readiness observation begun at epoch e. It
// reports whether the mark landed: if any other observation applied since e
// was captured, this one is stale — its I/O began before the newer result
// resolved — and is discarded. Discarding a fresh-but-raced result at worst
// leaves a residually optimistic view that the next health sweep corrects;
// applying a stale one would undo newer evidence.
func (rs *replicaState) applyObservation(e uint64, up bool) bool {
	rs.obsMu.Lock()
	defer rs.obsMu.Unlock()
	if e != rs.epoch {
		return false
	}
	rs.epoch++
	rs.setReady(up)
	return true
}

func (rs *replicaState) setReady(up bool) {
	rs.ready.Store(up)
	if up {
		rs.upGauge.Set(1)
	} else {
		rs.upGauge.Set(0)
	}
}

// Router is the consistent-hash front tier. Build with New; the zero value
// is not usable. The embedded chassis supplies Handler, Run, ListenAndServe
// and Serve, which run the health loop (Start) alongside the listener.
type Router struct {
	*httpd.Daemon
	ring        *Ring
	reps        map[string]*replicaState
	client      *http.Client
	maxAttempts int
	healthEvery time.Duration
	healthWait  time.Duration
	reg         *obs.Registry
	started     time.Time
	memo        *routeMemo

	unrouted atomic.Uint64 // requests refused because no replica answered
}

// New builds a Router over cfg.Replicas.
func New(cfg Config) (*Router, error) {
	ring := NewRing(cfg.Replicas, cfg.VNodes)
	if len(ring.Replicas()) == 0 {
		return nil, errors.New("router: at least one replica is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	if n := len(ring.Replicas()); maxAttempts > n {
		maxAttempts = n
	}
	healthEvery := cfg.HealthInterval
	if healthEvery <= 0 {
		healthEvery = 2 * time.Second
	}
	healthWait := cfg.HealthTimeout
	if healthWait <= 0 {
		healthWait = time.Second
	}
	client := cfg.Client
	if client == nil {
		// DefaultTransport keeps two idle connections per host, so a burst
		// of more concurrent forwards would close and redial the rest.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = httpd.DefaultMaxInflight()
		tr.MaxIdleConns = tr.MaxIdleConnsPerHost * len(ring.Replicas())
		client = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	}
	rt := &Router{
		ring:        ring,
		reps:        make(map[string]*replicaState, len(ring.Replicas())),
		client:      client,
		maxAttempts: maxAttempts,
		healthEvery: healthEvery,
		healthWait:  healthWait,
		reg:         reg,
		started:     time.Now(),
		memo:        newRouteMemo(),
	}
	for _, rep := range ring.Replicas() {
		label := obs.L("replica", rep)
		rs := &replicaState{
			base:      rep,
			requests:  reg.Counter("router_requests_total", "requests answered by each replica", label),
			errors:    reg.Counter("router_replica_errors_total", "transport errors and 5xx responses from each replica", label),
			failovers: reg.Counter("router_failovers_total", "requests that failed over away from each replica", label),
			upGauge:   reg.Gauge("router_replica_up", "replica readiness as seen by the health loop (1 ready / 0 not)", label),
			latency:   reg.Histogram("router_request_duration_seconds", "forward latency through each replica", label),
		}
		rs.setReady(true) // optimistic until the first health sweep
		rt.reps[rep] = rs
	}
	reg.CounterFunc("router_unrouted_total", "requests refused because every eligible replica failed",
		rt.unrouted.Load)
	reg.CounterFunc("router_route_memo_hits_total", "cached-endpoint requests and batch items placed on the ring by the route memo",
		rt.memo.hits.Load)
	reg.CounterFunc("router_route_memo_misses_total", "cached-endpoint requests and batch items that derived their canonical key",
		rt.memo.misses.Load)
	reg.GaugeFunc("router_replicas", "configured replica count",
		func() float64 { return float64(len(ring.Replicas())) })

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", rt.handleKeyed(rt.memo.pos))
	mux.HandleFunc("POST /v1/plan:batch", rt.handleBatch)
	mux.HandleFunc("POST /v1/fleet/plan", rt.handleKeyed(rt.memo.pos))
	mux.HandleFunc("POST /v1/fleet/simulate", rt.handleKeyed(rt.memo.pos))
	mux.HandleFunc("POST /v1/simulate", rt.handleKeyed(byKey(rawKey)))
	mux.HandleFunc("POST /v1/analyze", rt.handleKeyed(byKey(rawKey)))
	mux.HandleFunc("POST /v1/render", rt.handleKeyed(byKey(rawKey)))
	mux.HandleFunc("GET /v1/schedules", rt.handleKeyed(byKey(pathKey)))
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /metrics", httpd.Metrics(reg))
	rt.Daemon = httpd.NewDaemon(mux, httpd.Lifecycle{Background: rt.Start})
	return rt, nil
}

// Ring returns the router's consistent-hash ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry returns the router's metric registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Start runs the readiness loop until ctx is cancelled: one synchronous
// sweep immediately, then one every HealthInterval.
func (rt *Router) Start(ctx context.Context) {
	rt.CheckNow(ctx)
	t := time.NewTicker(rt.healthEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckNow(ctx)
		}
	}
}

// CheckNow probes every replica's /readyz once, concurrently, and updates
// the routing table. A replica is ready iff the probe answers 200 within
// HealthTimeout — 503 (draining), other statuses, and transport errors all
// route around it.
func (rt *Router) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rs := range rt.reps {
		wg.Add(1)
		go func(rs *replicaState) {
			defer wg.Done()
			epoch := rs.beginObservation()
			pctx, cancel := context.WithTimeout(ctx, rt.healthWait)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, rs.base+"/readyz", nil)
			if err != nil {
				rs.applyObservation(epoch, false)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rs.applyObservation(epoch, false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rs.applyObservation(epoch, resp.StatusCode == http.StatusOK)
		}(rs)
	}
	wg.Wait()
}

// posFunc places a request on the ring by its path and body.
type posFunc func(path string, body []byte) uint64

// byKey places a request at its routing key's position.
func byKey(key func(path string, body []byte) string) posFunc {
	return func(path string, body []byte) uint64 { return keyPos(key(path, body)) }
}

// cacheKey routes the cached endpoints by the serve tier's own canonical
// cache key, so every equivalent request — however its optional fields are
// spelled — lands on the replica whose caches already hold it. Bodies that
// fail to decode or resolve fall back to a raw-body hash; the owning replica
// then emits the same 400 a direct request would get. The route memo
// (routeMemo.pos) stands in front of it.
func cacheKey(path string, body []byte) string {
	if key, ok := serve.CanonicalKey(path, body); ok {
		return key
	}
	return rawKey(path, body)
}

// rawKey routes by a hash of the request bytes: no response cache exists
// for these endpoints, but equal bodies still reuse one replica's engine
// caches (memoized schedules, critical paths).
func rawKey(path string, body []byte) string {
	return "raw:" + path + ":" + fmt.Sprintf("%016x", fnv64a(body))
}

// pathKey routes body-less GETs by path alone.
func pathKey(path string, _ []byte) string { return "path:" + path }

// handleKeyed forwards one request to the owner of its ring position,
// failing over along the ring on transport errors and 5xx.
func (rt *Router) handleKeyed(at posFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if body, ok := readBody(w, r); ok {
			rt.proxy(w, r, at(r.URL.Path, body), body)
		}
	}
}

// readBody reads the (capped) request body, answering 400 itself when it
// cannot.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	httpd.LimitBody(w, r)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, "router: read body: "+err.Error())
	}
	return body, err == nil
}

// proxy forwards body to the owners of ring position pos and relays the
// answer, or 502 when every attempt failed.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, pos uint64, body []byte) {
	resp, err := rt.forward(r, pos, r.URL.Path, body)
	if errors.Is(err, errClientGone) {
		return
	}
	if err != nil {
		rt.unrouted.Add(1)
		httpd.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	relay(w, resp)
}

// forwarded is a fully buffered upstream response, ready to relay or merge.
// It keeps the headers the serve tier's contracts ride on: the body's type,
// the request id, and a shed reply's drain-aware Retry-After.
type forwarded struct {
	status      int
	contentType string
	requestID   string
	retryAfter  string
	body        []byte
}

// forward tries the owners of ring position pos in ring order (at most
// maxAttempts distinct replicas), skipping replicas the health loop marked
// not-ready.
// Transport errors and 5xx fail over to the next owner; everything else —
// including 429 shed and 4xx validation errors — is the answer, relayed
// as-is so the serve tier's back-pressure and error contracts pass through
// unchanged. When every replica is marked not-ready the owners are tried
// anyway: a stale health view should degrade to extra attempts, not an
// outage. An attempt that fails after the client has gone ends the request
// with errClientGone.
func (rt *Router) forward(r *http.Request, pos uint64, path string, body []byte) (*forwarded, error) {
	owners := rt.ring.ownersAt(pos, len(rt.ring.Replicas()))
	candidates := make([]*replicaState, 0, len(owners))
	for _, rep := range owners {
		if rs := rt.reps[rep]; rs.ready.Load() {
			candidates = append(candidates, rs)
		}
	}
	if len(candidates) == 0 {
		for _, rep := range owners {
			candidates = append(candidates, rt.reps[rep])
		}
	}
	if len(candidates) > rt.maxAttempts {
		candidates = candidates[:rt.maxAttempts]
	}
	var lastErr error
	for i, rs := range candidates {
		if i > 0 {
			candidates[i-1].failovers.Inc()
		}
		start := time.Now()
		req, err := http.NewRequestWithContext(r.Context(), r.Method, rs.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		if id := r.Header.Get("X-Request-Id"); id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		epoch := rs.beginObservation()
		resp, err := rt.client.Do(req)
		if err != nil {
			if gone := clientGone(r); gone != nil {
				return nil, gone
			}
			rs.errors.Inc()
			// Passive detection: route around before the next poll — unless
			// a health probe landed a newer verdict while this request was
			// in flight, in which case the probe's evidence wins.
			rs.applyObservation(epoch, false)
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode >= 500 {
			err = fmt.Errorf("%s: upstream status %d", rs.base, resp.StatusCode)
		}
		if err != nil {
			if gone := clientGone(r); gone != nil {
				return nil, gone
			}
			rs.errors.Inc()
			lastErr = err
			continue
		}
		rs.requests.Inc()
		rs.latency.Since(start)
		return &forwarded{
			status:      resp.StatusCode,
			contentType: resp.Header.Get("Content-Type"),
			requestID:   resp.Header.Get("X-Request-Id"),
			retryAfter:  resp.Header.Get("Retry-After"),
			body:        respBody,
		}, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no replica available")
	}
	return nil, fmt.Errorf("router: all attempts failed: %w", lastErr)
}

// errClientGone is forward's error once the client's request has ended: an
// attempt that failed then says nothing about the replica, so it is not
// counted against it, marks nothing and fails over nowhere, and the request
// is not unrouted. Nobody is left to read a reply.
var errClientGone = errors.New("router: client went away")

// clientGone returns errClientGone, with the cause, when r's context has
// ended.
func clientGone(r *http.Request) error {
	if err := r.Context().Err(); err != nil {
		return fmt.Errorf("%w: %w", errClientGone, err)
	}
	return nil
}

// relay writes a forwarded response to the client verbatim.
func relay(w http.ResponseWriter, f *forwarded) {
	if f.contentType != "" {
		w.Header().Set("Content-Type", f.contentType)
	}
	if f.requestID != "" {
		w.Header().Set("X-Request-Id", f.requestID)
	}
	if f.retryAfter != "" {
		w.Header().Set("Retry-After", f.retryAfter)
	}
	w.WriteHeader(f.status)
	w.Write(f.body)
}

// handleBatch scatters /v1/plan:batch by per-item owner and gathers the
// sub-batch replies positionally, so a routed batch returns exactly the
// items a single replica would: each item routes by its /v1/plan cache key
// (sub-batches land where the equivalent singles would), sub-batches
// forward with the same failover policy as single requests, and the merged
// reply marshals through the same serve codec shape. A sub-batch the
// owner sheds is back-pressure, not a routing failure: the batch answers
// with that 429 as relayed, so the client sees the replica's Retry-After.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req serve.BatchPlanRequest
	if err := serve.DecodeStrict(bytes.NewReader(body), &req); err != nil || len(req.Requests) == 0 || len(req.Requests) > serve.MaxBatchItems {
		// Malformed, empty, or oversized: forward whole to one replica so
		// the client gets the serve tier's own 400, byte-identical.
		rt.proxy(w, r, keyPos(rawKey(r.URL.Path, body)), body)
		return
	}
	// Group item indices by owning replica, placing each item on the ring
	// once, through the route memo. Items that fail to resolve still route
	// (by raw item hash) — the owner reports the same per-item error a
	// direct batch would.
	pos := make([]uint64, len(req.Requests))
	groups := make(map[string][]int)
	for i, item := range req.Requests {
		raw, err := json.Marshal(item)
		if err != nil {
			httpd.WriteError(w, http.StatusBadRequest, "router: encode item: "+err.Error())
			return
		}
		pos[i] = rt.memo.pos("/v1/plan", raw)
		owner := rt.ring.ownersAt(pos[i], 1)[0]
		groups[owner] = append(groups[owner], i)
	}
	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	results := make([]serve.BatchPlanItem, len(req.Requests))
	errs := make([]error, len(owners))
	shed := make([]*forwarded, len(owners))
	var wg sync.WaitGroup
	for gi, owner := range owners {
		wg.Add(1)
		go func(gi int, idxs []int) {
			defer wg.Done()
			sub := serve.BatchPlanRequest{Requests: make([]serve.PlanRequest, len(idxs))}
			for k, i := range idxs {
				sub.Requests[k] = req.Requests[i]
			}
			subBody, err := json.Marshal(sub)
			if err != nil {
				errs[gi] = err
				return
			}
			// The group forwards at its first item's position: that is the
			// key whose ownership placed the group, so failover walks the
			// same owner sequence a single request for it would.
			f, err := rt.forward(r, pos[idxs[0]], r.URL.Path, subBody)
			if err != nil {
				errs[gi] = err
				return
			}
			if f.status == http.StatusTooManyRequests {
				shed[gi] = f
				return
			}
			if f.status != http.StatusOK {
				errs[gi] = fmt.Errorf("sub-batch status %d: %s", f.status, truncate(f.body, 200))
				return
			}
			var subResp serve.BatchPlanResponse
			if err := json.Unmarshal(f.body, &subResp); err != nil {
				errs[gi] = err
				return
			}
			if len(subResp.Results) != len(idxs) {
				errs[gi] = fmt.Errorf("sub-batch returned %d results for %d items", len(subResp.Results), len(idxs))
				return
			}
			for k, i := range idxs {
				results[i] = subResp.Results[k]
			}
		}(gi, groups[owner])
	}
	wg.Wait()
	for _, err := range errs {
		if errors.Is(err, errClientGone) {
			return
		}
	}
	for _, err := range errs {
		if err != nil {
			rt.unrouted.Add(1)
			httpd.WriteError(w, http.StatusBadGateway, "router: batch scatter: "+err.Error())
			return
		}
	}
	for _, f := range shed {
		if f != nil {
			relay(w, f)
			return
		}
	}
	httpd.WriteJSON(w, http.StatusOK, serve.BatchPlanResponse{Items: len(results), Results: results})
}

// HealthResponse is the router's own GET /healthz reply.
type HealthResponse struct {
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Replicas      []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one replica's state as the router sees it.
type ReplicaHealth struct {
	Addr  string `json:"addr"`
	Ready bool   `json:"ready"`
}

// handleHealth reports the router's own liveness plus its view of each
// replica. Status degrades to "degraded" when any replica is out and
// "unrouted" when all are.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{UptimeSeconds: time.Since(rt.started).Seconds()}
	up := 0
	for _, rep := range rt.ring.Replicas() {
		ready := rt.reps[rep].ready.Load()
		if ready {
			up++
		}
		resp.Replicas = append(resp.Replicas, ReplicaHealth{Addr: rep, Ready: ready})
	}
	switch {
	case up == len(resp.Replicas):
		resp.Status = "ok"
	case up > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "unrouted"
	}
	httpd.WriteJSON(w, http.StatusOK, resp)
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}
