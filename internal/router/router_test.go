package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/httpd"
	"chimera/internal/serve"
)

const planBody = `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`

// replicaFleet is a set of in-process chimera-serve replicas fronted by a
// router under test.
type replicaFleet struct {
	servers  []*serve.Server
	backends []*httptest.Server
	router   *Router
	front    *httptest.Server
}

func newFleet(t *testing.T, n int) *replicaFleet {
	t.Helper()
	f := &replicaFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, ts)
		urls[i] = ts.URL
	}
	rt, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// byURL maps a replica base URL back to its serve.Server.
func (f *replicaFleet) byURL(url string) *serve.Server {
	for i, ts := range f.backends {
		if ts.URL == url {
			return f.servers[i]
		}
	}
	return nil
}

func postURL(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestRouterConsistentRoutingAndIdentity: repeated equal requests through
// the router land on exactly one replica (the key's ring owner), and the
// routed body is byte-identical to a direct single-replica response.
func TestRouterConsistentRoutingAndIdentity(t *testing.T) {
	f := newFleet(t, 3)
	var first []byte
	for i := 0; i < 3; i++ {
		status, body := postURL(t, f.front.URL+"/v1/plan", planBody)
		if status != http.StatusOK {
			t.Fatalf("routed plan %d: %d %s", i, status, body)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("routed response %d diverged from the first", i)
		}
	}

	owner := f.router.Ring().Owner(cacheKey("/v1/plan", []byte(planBody)))
	for _, ts := range f.backends {
		want := uint64(0)
		if ts.URL == owner {
			want = 3
		}
		if got := f.byURL(ts.URL).Snapshot().Requests.Plan; got != want {
			t.Fatalf("replica %s answered %d plans, want %d (owner %s)", ts.URL, got, want, owner)
		}
	}

	// Byte identity against an un-routed replica.
	direct := serve.New(serve.Config{})
	directTS := httptest.NewServer(direct.Handler())
	defer directTS.Close()
	if _, body := postURL(t, directTS.URL+"/v1/plan", planBody); !bytes.Equal(body, first) {
		t.Fatalf("routed body diverges from direct serve:\nrouted: %.120s\ndirect: %.120s", first, body)
	}
}

// TestRouterFailover: when the owner replica dies mid-fleet, the request
// fails over to the key's next ring owner, the dead replica's failover
// counter increments, and passive detection marks it not-ready.
func TestRouterFailover(t *testing.T) {
	f := newFleet(t, 3)
	owner := f.router.Ring().Owner(cacheKey("/v1/plan", []byte(planBody)))
	for i, ts := range f.backends {
		if ts.URL == owner {
			f.backends[i].Close()
		}
	}

	status, body := postURL(t, f.front.URL+"/v1/plan", planBody)
	if status != http.StatusOK {
		t.Fatalf("failover plan: %d %s", status, body)
	}
	next := f.router.Ring().Owners(cacheKey("/v1/plan", []byte(planBody)), 2)[1]
	if got := f.byURL(next).Snapshot().Requests.Plan; got != 1 {
		t.Fatalf("next owner %s answered %d plans, want 1", next, got)
	}
	dead := f.router.reps[owner]
	if dead.failovers.Value() != 1 {
		t.Fatalf("dead owner failovers=%d, want 1", dead.failovers.Value())
	}
	if dead.errors.Value() == 0 {
		t.Fatal("dead owner error counter did not increment")
	}
	if dead.ready.Load() {
		t.Fatal("passive detection did not mark the dead replica not-ready")
	}
}

// TestRouter429Passthrough: shed responses are the answer, not a failure —
// no failover, no error count, body and Retry-After relayed verbatim. A
// batch whose sub-batch is shed answers with that 429 too, not a 502, and
// is not counted as unrouted.
func TestRouter429Passthrough(t *testing.T) {
	const shedBody = `{"error":"too busy: 1 requests in flight (limit 1)"}`
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(shedBody))
	}))
	defer shed.Close()
	rt, err := New(Config{Replicas: []string{shed.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, c := range []struct{ path, body string }{
		{"/v1/plan", planBody},
		{"/v1/plan:batch", `{"requests":[` + planBody + `]}`},
	} {
		resp, err := http.Post(front.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || body.String() != shedBody {
			t.Fatalf("%s: routed shed: %d %s, want 429 %s", c.path, resp.StatusCode, body.String(), shedBody)
		}
		if got := resp.Header.Get("Retry-After"); got != "7" {
			t.Fatalf("%s: routed shed has Retry-After %q, want the replica's \"7\"", c.path, got)
		}
	}
	rs := rt.reps[shed.URL]
	if rs.errors.Value() != 0 || rs.failovers.Value() != 0 {
		t.Fatalf("429 counted as failure: errors=%d failovers=%d, want 0/0", rs.errors.Value(), rs.failovers.Value())
	}
	if n := rt.unrouted.Load(); n != 0 {
		t.Fatalf("a shed batch counted as unrouted %d times, want 0", n)
	}
}

// TestRouterRoutesAroundDraining: once the health loop sees a replica's
// /readyz report draining, its keys forward to the next owner without
// touching the draining replica.
func TestRouterRoutesAroundDraining(t *testing.T) {
	f := newFleet(t, 2)
	owner := f.router.Ring().Owner(cacheKey("/v1/plan", []byte(planBody)))
	f.byURL(owner).BeginDrain()
	f.router.CheckNow(context.Background())
	if f.router.reps[owner].ready.Load() {
		t.Fatal("health sweep left the draining replica marked ready")
	}

	status, body := postURL(t, f.front.URL+"/v1/plan", planBody)
	if status != http.StatusOK {
		t.Fatalf("plan during drain: %d %s", status, body)
	}
	if got := f.byURL(owner).Snapshot().Requests.Plan; got != 0 {
		t.Fatalf("draining owner answered %d plans, want 0", got)
	}
}

// TestRouterObservationEpoch: readiness marks are sequenced per replica —
// an observation that began before another observation applied is stale and
// must be discarded. The bug this pins down: a forward whose transport
// error surfaces after a concurrent /readyz probe succeeded would overwrite
// the probe's newer evidence and flap a healthy replica down until the next
// sweep. The prober is scripted — each CheckNow consumes one status — so
// every interleaving here is driven explicitly, no timing involved.
func TestRouterObservationEpoch(t *testing.T) {
	statuses := make(chan int, 8)
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("scripted prober got unexpected path %s", r.URL.Path)
		}
		w.WriteHeader(<-statuses)
	}))
	defer rep.Close()
	rt, err := New(Config{Replicas: []string{rep.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rs := rt.reps[rep.URL]
	ctx := context.Background()

	// The bug's interleaving: a forward begins (captures the epoch), a
	// probe begins after it and resolves 200. When the forward's transport
	// error finally surfaces it is stale — discarded, replica stays ready.
	stale := rs.beginObservation()
	statuses <- http.StatusOK
	rt.CheckNow(ctx)
	if !rs.ready.Load() {
		t.Fatal("scripted 200 probe left the replica not-ready")
	}
	if rs.applyObservation(stale, false) {
		t.Fatal("stale down-mark applied over the probe's newer 200")
	}
	if !rs.ready.Load() {
		t.Fatal("stale down-mark flapped the healthy replica down")
	}

	// The reverse race: a probe and a forward are both in flight; the
	// forward's transport error resolves first and wins. The probe's 200 is
	// now the stale observation — it predates the error's resolution — and
	// must not resurrect the replica early.
	probe := rs.beginObservation()
	mark := rs.beginObservation()
	if !rs.applyObservation(mark, false) {
		t.Fatal("fresh down-mark did not apply")
	}
	if rs.ready.Load() {
		t.Fatal("down-mark did not take")
	}
	if rs.applyObservation(probe, true) {
		t.Fatal("stale probe success applied over the newer down-mark")
	}
	if rs.ready.Load() {
		t.Fatal("stale probe success resurrected the replica")
	}

	// The next sweep is a fresh observation: it recovers the replica, so
	// discarding a raced result is at worst one poll period of pessimism.
	statuses <- http.StatusOK
	rt.CheckNow(ctx)
	if !rs.ready.Load() {
		t.Fatal("next health sweep did not recover the replica")
	}

	// A scripted 503 (draining) still marks down through the gate.
	statuses <- http.StatusServiceUnavailable
	rt.CheckNow(ctx)
	if rs.ready.Load() {
		t.Fatal("scripted 503 probe left the replica ready")
	}
}

// TestRouterBatchScatterGather: a routed batch's reply must be
// byte-identical to the same batch against one replica — scatter by item
// owner, gather positionally, errors included.
func TestRouterBatchScatterGather(t *testing.T) {
	items := []string{
		planBody,
		`{"model":{"preset":"bert48"},"p":8,"mini_batch":64,"max_b":8,"platform":{"preset":"pizdaint"}}`,
		`{"model":{"preset":"bert48"},"p":4,"mini_batch":32,"max_b":4,"platform":{"preset":"pizdaint"}}`,
		`{"model":{"preset":"bert48"},"p":7,"mini_batch":512,"platform":{"preset":"pizdaint"}}`, // infeasible
		planBody, // duplicate
	}
	batch := `{"requests":[` + strings.Join(items, ",") + `]}`

	f := newFleet(t, 3)
	status, routed := postURL(t, f.front.URL+"/v1/plan:batch", batch)
	if status != http.StatusOK {
		t.Fatalf("routed batch: %d %s", status, routed)
	}

	direct := serve.New(serve.Config{})
	directTS := httptest.NewServer(direct.Handler())
	defer directTS.Close()
	dStatus, directBody := postURL(t, directTS.URL+"/v1/plan:batch", batch)
	if dStatus != http.StatusOK {
		t.Fatalf("direct batch: %d %s", dStatus, directBody)
	}
	if !bytes.Equal(routed, directBody) {
		t.Fatalf("routed batch diverges from single-replica batch:\nrouted: %.200s\ndirect: %.200s", routed, directBody)
	}

	// Each replica served exactly the sub-batch the ring assigned it:
	// replicas owning ≥1 item answered one batch, the rest none.
	wantBatches := map[string]uint64{}
	for _, item := range items {
		wantBatches[f.router.Ring().Owner(cacheKey("/v1/plan", []byte(item)))] = 1
	}
	for _, ts := range f.backends {
		if got := f.byURL(ts.URL).Snapshot().Requests.PlanBatch; got != wantBatches[ts.URL] {
			t.Fatalf("replica %s answered %d batches, want %d", ts.URL, got, wantBatches[ts.URL])
		}
	}

	// Malformed batch forwards whole and relays the serve tier's own 400.
	status, body := postURL(t, f.front.URL+"/v1/plan:batch", `{"requests":[]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "non-empty") {
		t.Fatalf("empty routed batch: %d %s, want the serve tier's 400", status, body)
	}
}

// TestRouterUnrouted: with every replica dead, the router answers 502 and
// counts the refusal.
func TestRouterUnrouted(t *testing.T) {
	f := newFleet(t, 2)
	for _, ts := range f.backends {
		ts.Close()
	}
	status, body := postURL(t, f.front.URL+"/v1/plan", planBody)
	if status != http.StatusBadGateway {
		t.Fatalf("all-dead plan: %d %s, want 502", status, body)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "all attempts failed") {
		t.Fatalf("all-dead error body %s", body)
	}
	if f.router.unrouted.Load() != 1 {
		t.Fatalf("unrouted counter %d, want 1", f.router.unrouted.Load())
	}
}

// TestRouterHealth: /healthz degrades with the replica view.
func TestRouterHealth(t *testing.T) {
	f := newFleet(t, 2)
	f.router.CheckNow(context.Background())
	check := func(want string) {
		t.Helper()
		resp, err := http.Get(f.front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if h.Status != want {
			t.Fatalf("router health %q, want %q (replicas %+v)", h.Status, want, h.Replicas)
		}
	}
	check("ok")

	f.backends[0].Close()
	f.router.CheckNow(context.Background())
	check("degraded")

	f.backends[1].Close()
	f.router.CheckNow(context.Background())
	check("unrouted")
}

// TestRouterMetricsEndpoint: the router serves its own Prometheus series,
// the route memo's included: a body posted twice is one miss, then one hit.
func TestRouterMetricsEndpoint(t *testing.T) {
	f := newFleet(t, 2)
	for i := 0; i < 2; i++ {
		if status, body := postURL(t, f.front.URL+"/v1/plan", planBody); status != http.StatusOK {
			t.Fatalf("plan: %d %s", status, body)
		}
	}
	resp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, series := range []string{"router_requests_total", "router_replica_up", "router_request_duration_seconds", "router_replicas",
		"\nrouter_route_memo_hits_total 1\n", "\nrouter_route_memo_misses_total 1\n"} {
		if !strings.Contains(text, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, text)
		}
	}
}

// TestRouterDefaultClientKeepsConnections: with no Config.Client, the
// router keeps as many idle connections per replica as a default replica
// admits heavy requests (DefaultTransport keeps two), so a second burst as
// wide as the first reuses the first burst's connections instead of
// redialing. The replica holds each burst's requests until all have
// arrived, so every request of a burst needs a connection of its own.
func TestRouterDefaultClientKeepsConnections(t *testing.T) {
	wave := min(8, httpd.DefaultMaxInflight())
	var (
		mu      sync.Mutex
		arrived int
		all     chan struct{}
		dials   atomic.Int64
	)
	rep := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gate := all
		if arrived++; arrived == wave {
			close(gate)
		}
		mu.Unlock()
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
			t.Error("a burst never reached the replica whole")
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	rep.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	rep.Start()
	defer rep.Close()
	rt, err := New(Config{Replicas: []string{rep.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	burst := func() {
		mu.Lock()
		arrived, all = 0, make(chan struct{})
		mu.Unlock()
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(front.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("routed request answered %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	burst()
	if n := dials.Load(); n != int64(wave) {
		t.Fatalf("a burst of %d opened %d connections to the replica, want %d", wave, n, wave)
	}
	burst()
	if n := dials.Load() - int64(wave); n != 0 {
		t.Fatalf("a second burst of %d opened %d new connections to the replica, want 0", wave, n)
	}
}

// TestRouterClientDisconnectBlamesNoReplica: a client that gives up before
// slow replicas answer ends its request, not the replicas' health. The
// attempt that fails because the client went away counts no replica error,
// marks no replica down, fails over nowhere and is not unrouted — for a
// single request and for a batch's sub-forwards alike.
func TestRouterClientDisconnectBlamesNoReplica(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
			w.Write([]byte(`{}`))
		}
	})
	var urls []string
	for range 2 {
		ts := httptest.NewServer(slow)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.Handler().ServeHTTP(w, r)
		if r.URL.Path != "/healthz" {
			done <- struct{}{}
		}
	}))
	t.Cleanup(front.Close)
	impatient := &http.Client{Timeout: 100 * time.Millisecond}
	for _, c := range []struct{ path, body string }{
		{"/v1/plan", planBody},
		{"/v1/plan:batch", `{"requests":[` + planBody + `]}`},
	} {
		resp, err := impatient.Post(front.URL+c.path, "application/json", strings.NewReader(c.body))
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%s: answered %d before the client's timeout", c.path, resp.StatusCode)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the router kept forwarding for 5 s after the client left", c.path)
		}
		for _, u := range urls {
			rs := rt.reps[u]
			if !rs.ready.Load() || rs.errors.Value() != 0 || rs.failovers.Value() != 0 {
				t.Fatalf("%s: replica %s blamed for the client's timeout: ready=%v errors=%d failovers=%d",
					c.path, u, rs.ready.Load(), rs.errors.Value(), rs.failovers.Value())
			}
		}
		if n := rt.unrouted.Load(); n != 0 {
			t.Fatalf("%s: a client that left counted as unrouted %d times", c.path, n)
		}
	}
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("router health %q (%v), want \"ok\"", h.Status, err)
	}
}
