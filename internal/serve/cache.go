package serve

// The cached endpoints. /v1/plan, /v1/fleet/plan and /v1/fleet/simulate are
// pure functions of their resolved requests, so the daemon memoizes whole
// encoded replies: the engine memoizes schedule construction and critical
// paths, but a plan re-runs its Eq. 1 replays per call, and for a daemon the
// response is the natural memoization unit — a warm request is one lookup
// plus one write. The three differ only in how a body resolves to a cache
// key and a computation; everything else — the handler, single-flight,
// the LRU bound, snapshot/restore, stats and metrics — is one
// implementation, instantiated three times.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync/atomic"

	"chimera/internal/engine"
	"chimera/internal/httpd"
	"chimera/internal/obs"
	"chimera/internal/perfmodel"
)

// planOutcome is one cached reply: exactly one of body and err is set.
type planOutcome struct {
	body []byte
	err  error
}

// computeFunc evaluates a resolved request on a server's engine and returns
// the reply value to encode.
type computeFunc func(s *Server) (any, error)

// endpointInfo is what the server's loops need to know of a cached
// endpoint, whatever its key type.
type endpointInfo struct {
	// name is the instrument, span and cache-metric label; path the route.
	name, path string
	// keyPrefix namespaces the endpoint's canonical keys (see CanonicalKey).
	keyPrefix string
	// phase names the span phase a miss computes under.
	phase string
	// snapField and statField locate the endpoint's table in a snapshot
	// payload and in the /v1/stats reply.
	snapField func(*snapshotPayload) *json.RawMessage
	statField func(*StatsResponse) *CacheTableJSON
}

// endpoint describes one cached endpoint. resolve is the whole of what makes
// it different: it decodes and validates a body into the cache key — two
// bodies share a cache entry iff they resolve to equal keys — and the
// computation a miss runs. A resolve error is the client's (400).
type endpoint[K comparable] struct {
	endpointInfo
	resolve func(body io.Reader) (K, computeFunc, error)
}

// planEndpoint keys by the resolved (value-type) plan request.
var planEndpoint = endpoint[perfmodel.PlanRequest]{
	endpointInfo: endpointInfo{
		name: "plan", path: "/v1/plan", keyPrefix: "plan:", phase: "plan",
		snapField: func(p *snapshotPayload) *json.RawMessage { return &p.Plan },
		statField: func(r *StatsResponse) *CacheTableJSON { return &r.PlanCache },
	},
	resolve: func(body io.Reader) (perfmodel.PlanRequest, computeFunc, error) {
		var req PlanRequest
		if err := DecodeStrict(body, &req); err != nil {
			return perfmodel.PlanRequest{}, nil, err
		}
		preq, err := req.Resolve()
		if err != nil {
			return perfmodel.PlanRequest{}, nil, err
		}
		return preq, func(s *Server) (any, error) {
			preds, err := perfmodel.PlanOn(s.eng, preq)
			if err != nil {
				return nil, err
			}
			return NewPlanResponse(preq.Model.Name, preq.P, preq.MiniBatch, preds), nil
		}, nil
	},
}

// fleetPlanEndpoint: a fleet.Request holds slices, so it cannot itself be a
// comparable memo key; the key is its canonical JSON encoding (field order
// is fixed by the struct, so equal resolved requests encode to equal bytes).
var fleetPlanEndpoint = endpoint[string]{
	endpointInfo: endpointInfo{
		name: "fleet_plan", path: "/v1/fleet/plan", keyPrefix: "fleet:", phase: "allocate",
		snapField: func(p *snapshotPayload) *json.RawMessage { return &p.Fleet },
		statField: func(r *StatsResponse) *CacheTableJSON { return &r.FleetCache },
	},
	resolve: func(body io.Reader) (string, computeFunc, error) {
		var req FleetPlanRequest
		if err := DecodeStrict(body, &req); err != nil {
			return "", nil, err
		}
		freq, err := req.Resolve()
		if err != nil {
			return "", nil, err
		}
		return jsonKey(freq, func(s *Server) (any, error) {
			return s.allocator.Allocate(freq)
		})
	},
}

// fleetSimEndpoint replays a fleet scenario — classic (trace) or elastic
// (events with node churn) — keyed by the canonical JSON of the resolved
// scenario; the two marshal to distinct shapes, so keys cannot collide
// across modes. Both replies are the fleet results as they stand, as in
// chimera-fleet -json, so a served simulation is byte-identical to the
// in-process encoding.
var fleetSimEndpoint = endpoint[string]{
	endpointInfo: endpointInfo{
		name: "fleet_simulate", path: "/v1/fleet/simulate", keyPrefix: "fleetsim:", phase: "simulate",
		snapField: func(p *snapshotPayload) *json.RawMessage { return &p.FleetSim },
		statField: func(r *StatsResponse) *CacheTableJSON { return &r.FleetSimCache },
	},
	resolve: func(body io.Reader) (string, computeFunc, error) {
		var sc FleetScenario
		if err := DecodeStrict(body, &sc); err != nil {
			return "", nil, err
		}
		if sc.Elastic() {
			esc, err := sc.ResolveElastic()
			if err != nil {
				return "", nil, err
			}
			return jsonKey(esc, func(s *Server) (any, error) {
				return s.allocator.SimulateElastic(esc)
			})
		}
		if len(sc.Trace) == 0 {
			return "", nil, errEmptyFleetTrace
		}
		csc, err := sc.Resolve()
		if err != nil {
			return "", nil, err
		}
		return jsonKey(csc, func(s *Server) (any, error) {
			return s.allocator.Simulate(csc)
		})
	},
}

// jsonKey finishes a resolve whose key is the canonical JSON of v.
func jsonKey(v any, compute computeFunc) (string, computeFunc, error) {
	raw, err := json.Marshal(v)
	return string(raw), compute, err
}

// canonicalKey is the endpoint's cache key for body as a string, prefixed
// so keys of different endpoints cannot collide. A string key is already
// canonical JSON and is used as it is; any other key type is marshalled.
func (e endpoint[K]) canonicalKey(body []byte) (string, bool) {
	key, _, err := e.resolve(bytes.NewReader(body))
	if err != nil {
		return "", false
	}
	if s, ok := any(key).(string); ok {
		return e.keyPrefix + s, true
	}
	raw, err := json.Marshal(key)
	return e.keyPrefix + string(raw), err == nil
}

// CanonicalKey derives the response-cache identity of a request to one of
// the cached endpoints, through the same resolve the handler keys its cache
// with: two bodies get equal keys iff they share a cache entry, however
// their optional fields are spelled. The router shards by it, so every
// equivalent request lands on the replica whose cache already holds the
// answer. ok is false for other paths and for bodies that do not resolve
// (the serving replica answers those 400).
func CanonicalKey(path string, body []byte) (key string, ok bool) {
	switch path {
	case planEndpoint.path:
		return planEndpoint.canonicalKey(body)
	case fleetPlanEndpoint.path:
		return fleetPlanEndpoint.canonicalKey(body)
	case fleetSimEndpoint.path:
		return fleetSimEndpoint.canonicalKey(body)
	}
	return "", false
}

// responseCache is a cache[K] with its key type erased: what lets the
// server hold its caches in one list.
type responseCache interface {
	info() *endpointInfo
	handle(w http.ResponseWriter, r *http.Request)
	table() CacheTableJSON
	export() (entries json.RawMessage, n int, err error)
	decode(entries json.RawMessage) (insert func() int, err error)
	resolveCounts() (hits, misses func() uint64)
}

// cache is one endpoint's response cache on one server: single-flight, and
// bounded by the same CacheCapacity as the engine tables. A body memo of
// the same capacity stands in front of it.
type cache[K comparable] struct {
	endpoint[K]
	srv *Server
	// requests counts requests reaching the handler.
	requests *atomic.Uint64
	memo     *engine.Memo[K, planOutcome]
	resolved *httpd.BodyMemo[K]
}

func newCache[K comparable](s *Server, ep endpoint[K], capacity int, requests *atomic.Uint64) *cache[K] {
	return &cache[K]{endpoint: ep, srv: s, requests: requests, memo: engine.NewMemoCap[K, planOutcome](capacity),
		resolved: httpd.NewBodyMemo[K](capacity)}
}

func (c *cache[K]) info() *endpointInfo { return &c.endpointInfo }

func (c *cache[K]) resolveCounts() (hits, misses func() uint64) {
	return c.resolved.Hits, c.resolved.Misses
}

// handle is the cached-endpoint handler: resolve, then answer from the
// cache, computing and encoding under single-flight on a miss. A body the
// body memo has seen skips the resolve; its compute resolves the body again
// only if the reply has been evicted.
func (c *cache[K]) handle(w http.ResponseWriter, r *http.Request) {
	c.requests.Add(1)
	span := obs.SpanFrom(r.Context())
	span.StartPhase("decode")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		// Over the cap, or cut short: resolve what was read followed by
		// the same read error, so the 400 is the one a streamed decode
		// gives.
		_, _, err = c.resolve(io.MultiReader(bytes.NewReader(body), errReader{err}))
		c.srv.badRequest(w, err)
		return
	}
	var compute computeFunc
	key, err := c.resolved.Get(body, func() (K, error) {
		key, fn, err := c.resolve(bytes.NewReader(body))
		compute = fn
		return key, err
	})
	if err != nil {
		c.srv.badRequest(w, err)
		return
	}
	span.StartPhase("cache")
	computed := false
	out := c.memo.Do(key, func() planOutcome {
		computed = true
		if compute == nil {
			var err error
			if _, compute, err = c.resolve(bytes.NewReader(body)); err != nil {
				return planOutcome{err: err}
			}
		}
		span.StartPhase(c.phase)
		resp, err := compute(c.srv)
		if err != nil {
			return planOutcome{err: err}
		}
		span.StartPhase("encode")
		raw, err := json.Marshal(resp)
		if err != nil {
			return planOutcome{err: err}
		}
		return planOutcome{body: raw}
	})
	span.EndPhase()
	span.SetAttr("cache", cacheDisposition(computed))
	if out.err != nil {
		c.srv.unprocessable(w, out.err)
		return
	}
	httpd.WriteEncoded(w, http.StatusOK, out.body)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// table reports the cache's counters for /v1/stats and the serve_cache_*
// series.
func (c *cache[K]) table() CacheTableJSON {
	hits, misses := c.memo.Stats()
	return CacheTableJSON{Hits: hits, Misses: misses, Evictions: c.memo.Evictions(), Entries: c.memo.Len()}
}

// snapEntry is one persisted cache entry: the key (a resolved plan request
// round-trips through JSON to an equal comparable value; the fleet keys are
// already strings) and the exact response bytes the endpoint served.
type snapEntry[K comparable] struct {
	Key  K      `json:"key"`
	Body []byte `json:"body"`
}

// export encodes the cache's successful entries, least recently used first.
// Cached errors are skipped: they are cheap to recompute and freezing them
// across restarts would pin transient failures.
func (c *cache[K]) export() (json.RawMessage, int, error) {
	var entries []snapEntry[K]
	c.memo.Range(func(k K, v planOutcome) bool {
		if v.err == nil {
			entries = append(entries, snapEntry[K]{Key: k, Body: v.body})
		}
		return true
	})
	raw, err := json.Marshal(entries)
	return raw, len(entries), err
}

// decode parses exported entries and returns the function that inserts them
// (reporting how many the cache did not already hold), so a restore can
// validate every table before it touches any.
func (c *cache[K]) decode(raw json.RawMessage) (func() int, error) {
	var entries []snapEntry[K]
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &entries); err != nil {
			return nil, err
		}
	}
	return func() int {
		n := 0
		for _, e := range entries {
			if c.memo.Put(e.Key, planOutcome{body: e.Body}) {
				n++
			}
		}
		return n
	}, nil
}

// cacheDisposition names a response-cache lookup's outcome for span attrs
// and the endpoint latency histograms' cache label.
func cacheDisposition(computed bool) string {
	if computed {
		return "miss"
	}
	return "hit"
}

var errEmptyFleetTrace = errors.New("fleet: scenario has neither a trace nor events to simulate")
