package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"chimera/internal/router"
	"chimera/internal/serve"
)

// Fixed sizes of serve_zipf. The schedule's first quarter primes the caches
// inside set-up; the rest is the round's timed op sequence.
const (
	zipfTenants  = 2048
	zipfS        = 1.05
	zipfCacheCap = 128
	zipfReplicas = 2
	zipfPrimeOps = 3000
	zipfTimedOps = 9000
	zipfOpenRate = 3600 // requests/s of the open-loop pass: ≈40 % of the closed-loop throughput the clock read when the benchmark was defined
	zipfOpenOps  = 3600
	zipfTotalOps = zipfPrimeOps + zipfTimedOps
)

// requestIDHead is the header every daemon here echoes and the router
// forwards; the harness puts the op index in it.
const requestIDHead = "X-Request-Id"

// tenantRequest is tenant k's plan problem: a distinct small inline model
// per tenant — its own response-cache entry, and one of 18 shapes so misses
// meet both new and already-compiled schedule shapes — sized so a miss is a
// fraction of a millisecond of planning.
func tenantRequest(k int) serve.PlanRequest {
	platform := "pizdaint"
	if (k/9)%2 == 1 {
		platform = "v100"
	}
	return serve.PlanRequest{
		Model: serve.ModelRef{
			Name:   fmt.Sprintf("tenant-%04d", k),
			Layers: 8 + 4*(k%3), Hidden: 256 + 128*((k/3)%3), Heads: 8, Vocab: 8192, SeqLen: 128,
		},
		P: 8, MiniBatch: 64, MaxB: 8,
		Platform: serve.PlatformRef{Preset: platform},
	}
}

// zipfSchedule draws n tenant ranks in [0, tenants) from a seeded zipfian
// distribution, rank 0 heaviest.
func zipfSchedule(seed int64, tenants, n int, s float64) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(tenants-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

type zipfWorkload struct {
	bodies [][]byte // pre-encoded request per tenant
	golden []string
	sched  []int
	opKeys []int
}

func newZipfWorkload(seed int64) (*zipfWorkload, error) {
	var g zipfGolden
	if err := readCommitted("golden/zipf.json", &g); err != nil {
		return nil, err
	}
	if len(g.Digests) != zipfTenants {
		return nil, fmt.Errorf("golden/zipf.json holds %d digests, want %d; run -update-golden", len(g.Digests), zipfTenants)
	}
	bodies, err := tenantBodies()
	if err != nil {
		return nil, err
	}
	return &zipfWorkload{bodies: bodies, golden: g.Digests, sched: zipfSchedule(seed, zipfTenants, zipfTotalOps, zipfS), opKeys: positions(zipfTimedOps)}, nil
}

// positions is the key list of a sequence in which every op is its own work:
// what an op meets depends on all the ops before it, so only the op at the
// same position of another round repeats it.
func positions(n int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

// tenantBodies pre-encodes every tenant's request.
func tenantBodies() ([][]byte, error) {
	bodies := make([][]byte, zipfTenants)
	for k := range bodies {
		raw, err := json.Marshal(tenantRequest(k))
		if err != nil {
			return nil, err
		}
		bodies[k] = raw
	}
	return bodies, nil
}

func (w *zipfWorkload) name() string { return "serve_zipf" }

// keys: one caller sends the schedule in order, so the caches an op meets —
// and whether it hits — are the same in every round.
func (w *zipfWorkload) keys() []int { return w.opKeys }

// loopback is one HTTP server on an ephemeral loopback port.
type loopback struct {
	hs   *http.Server
	addr string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server and waits until its accept loop has ended.
func (l *loopback) close() {
	_ = l.hs.Close()
	<-l.done
}

// cluster is the serve tier under test: replicas behind one router, all on
// loopback inside this process.
type cluster struct {
	replicas []*serve.Server
	router   *router.Router
	servers  []*loopback // replicas, then the router
	// replicaURL are the replicas' real loopback URLs, for probes that
	// bypass the router.
	replicaURL []string
	routerURL  string
	transport  *http.Transport
}

// replicaName is the name replica i is known by on the router's hash ring.
// Ring ownership is a pure function of the names, so fixed names — resolved
// to this round's ephemeral ports by the router client's dialer — give every
// round and every run the same tenant → replica map.
func replicaName(i int) string { return fmt.Sprintf("replica-%d.bench:80", i) }

// newCluster builds n replicas and their router. wrap, when non-nil, wraps
// each handler (the traced pass records a span around every ServeHTTP).
func newCluster(n int, cfg serve.Config, wrap func(layer string, h http.Handler) http.Handler) (*cluster, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	c := &cluster{}
	dial := make(map[string]string, n)
	var names []string
	for i := 0; i < n; i++ {
		srv := serve.New(cfg)
		l, err := serveLoopback(wrap("serve.handle", srv.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		c.replicas = append(c.replicas, srv)
		c.servers = append(c.servers, l)
		c.replicaURL = append(c.replicaURL, "http://"+l.addr)
		dial[replicaName(i)] = l.addr
		names = append(names, "http://"+replicaName(i))
	}
	dialer := &net.Dialer{}
	c.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := dial[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 8,
	}
	rt, err := router.New(router.Config{Replicas: names, Client: &http.Client{Transport: c.transport, Timeout: 60 * time.Second}})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	l, err := serveLoopback(wrap("router.handle", rt.Handler()))
	if err != nil {
		c.close()
		return nil, err
	}
	c.servers = append(c.servers, l)
	c.routerURL = "http://" + l.addr
	// One synchronous readiness sweep in place of the router's polling
	// loop: no ticker runs beside the measurement and nothing sleeps.
	rt.CheckNow(context.Background())
	return c, nil
}

// failovers sums the router's per-replica failover counters.
func (c *cluster) failovers() float64 {
	var n float64
	for name, v := range c.router.Registry().Snapshot().Counters {
		if strings.HasPrefix(name, "router_failovers_total") {
			n += float64(v)
		}
	}
	return n
}

func (c *cluster) close() {
	for _, l := range c.servers {
		l.close()
	}
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
}

// httpClient is one closed-loop caller: a keep-alive connection and a
// reusable read buffer.
type httpClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends body and reads the whole reply into the client's buffer. The
// returned instant is when the last reply byte had been read.
func (c *httpClient) post(url string, body []byte, op int) (status int, reply []byte, end time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Now(), err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHead, opRequestID(op))
	return c.do(req)
}

func (c *httpClient) get(url string) (status int, reply []byte, end time.Time, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	return c.do(req)
}

func (c *httpClient) do(req *http.Request) (int, []byte, time.Time, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	end := time.Now()
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), end, err
}

// opRequestID carries the op index to the handler-side spans; the router
// forwards the header to the replica it picks.
func opRequestID(op int) string { return "op-" + strconv.Itoa(op) }

func opOfRequest(r *http.Request) int {
	id, ok := strings.CutPrefix(r.Header.Get(requestIDHead), "op-")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(id)
	if err != nil {
		return -1
	}
	return n
}

// spanHandlers wraps handlers so each ServeHTTP is a span of the request's
// op; its parent is inferred from enclosure once the round is over.
func spanHandlers(tr *tracer) func(string, http.Handler) http.Handler {
	if tr == nil {
		return nil
	}
	return func(name string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op := opOfRequest(r)
			if op < 0 || tr.forOp(op) == nil { // priming, probes and streams are not ops
				h.ServeHTTP(w, r)
				return
			}
			sp := tr.begin(name, op, inferParent)
			h.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
}

type zipfRound struct {
	w      *zipfWorkload
	c      *cluster
	caller *httpClient
	url    string
	t      *tracer
}

// setup builds the cluster and replays the schedule's first quarter through
// it, so the timed ops meet full, churning caches.
func (w *zipfWorkload) setup(tr *tracer) (round, error) {
	c, err := newCluster(zipfReplicas, serve.Config{CacheCapacity: zipfCacheCap}, spanHandlers(tr))
	if err != nil {
		return nil, err
	}
	r := &zipfRound{w: w, c: c, caller: newHTTPClient(), url: c.routerURL + "/v1/plan"}
	for _, k := range w.sched[:zipfPrimeOps] {
		status, reply, _, err := r.caller.post(r.url, w.bodies[k], -1)
		if err != nil || status != http.StatusOK || digest(reply) != w.golden[k] {
			r.close()
			return nil, fmt.Errorf("priming: tenant %d: status %d %v", k, status, err)
		}
	}
	r.t = tr
	return r, nil
}

func (r *zipfRound) do(i int) (time.Time, time.Time, bool) {
	k := r.w.sched[zipfPrimeOps+i]
	t := r.t.forOp(i)
	begin := time.Now()
	sp := t.begin("bench.http_op", i, noParent)
	status, reply, end, err := r.caller.post(r.url, r.w.bodies[k], i)
	t.end(sp)
	return begin, end, err == nil && status == http.StatusOK && digest(reply) == r.w.golden[k]
}

// counters sums the replicas' own exact counts: response-cache hits and
// misses (priming included), engine evictions, shed requests, and the
// router's failovers.
func (r *zipfRound) counters() map[string]float64 {
	var hits, misses, evictions, shed float64
	for _, srv := range r.c.replicas {
		st := srv.Snapshot()
		hits += float64(st.PlanCache.Hits)
		misses += float64(st.PlanCache.Misses)
		evictions += float64(st.PlanCache.Evictions + st.Engine.Schedules.Evictions + st.Engine.Criticals.Evictions)
		shed += float64(st.Shed)
	}
	return map[string]float64{
		"serve.miss_share": misses / (hits + misses),
		"engine.evictions": evictions,
		"serve.shed_429":   shed,
		"router.failovers": r.c.failovers(),
	}
}

func (r *zipfRound) close() {
	r.caller.close()
	r.c.close()
}
