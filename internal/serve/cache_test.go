package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chimera/internal/httpd"
	"chimera/internal/perfmodel"
)

// reply is one handler answer: what a client can compare.
type reply struct {
	status int
	body   string
}

func serveBody(h http.Handler, path, body string) reply {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{rec.Code, rec.Body.String()}
}

// freshReply is body's answer from a server that has seen no other
// request, so neither its resolve memo nor its response cache holds
// anything.
func freshReply(path, body string) reply {
	return serveBody(New(Config{}).Handler(), path, body)
}

// memoRequest is one request of a resolve-memo test and what it must get.
type memoRequest struct {
	path, body string
	want       reply
}

// memoRequests pairs each (path, body) with its fresh-server reply.
func memoRequests(bodies [][2]string) []memoRequest {
	reqs := make([]memoRequest, len(bodies))
	for i, b := range bodies {
		reqs[i] = memoRequest{path: b[0], body: b[1], want: freshReply(b[0], b[1])}
	}
	return reqs
}

// memoModel is the resolve memos' expected state: a direct-mapped table
// per endpoint that a body which resolves overwrites on a miss and a body
// that does not (a 400) never touches.
type memoModel struct {
	slots        map[string]map[int][32]byte
	hits, misses map[string]uint64
}

func newMemoModel() *memoModel {
	return &memoModel{slots: map[string]map[int][32]byte{}, hits: map[string]uint64{}, misses: map[string]uint64{}}
}

func (m *memoModel) see(s *Server, r memoRequest) {
	c := cacheAt(s, r.path)
	sum := digest([]byte(r.body))
	i := c.slot(&sum)
	if m.slots[r.path] == nil {
		m.slots[r.path] = map[int][32]byte{}
	}
	if held, ok := m.slots[r.path][i]; ok && held == sum {
		m.hits[r.path]++
		return
	}
	m.misses[r.path]++
	if r.want.status != http.StatusBadRequest {
		m.slots[r.path][i] = sum
	}
}

// memoSlotter is the part of a resolve memo the tests read whatever its key
// type.
type memoSlotter interface {
	slot(sum *[32]byte) int
}

// cacheAt returns the response cache that answers path and its memo.
func cacheAt(s *Server, path string) memoSlotter {
	for _, c := range s.caches {
		if c.info().path != path {
			continue
		}
		switch c := c.(type) {
		case *cache[string]:
			return c.resolved
		case *cache[perfmodel.PlanRequest]:
			return c.resolved
		}
	}
	panic("no cache for " + path)
}

// check requires the server's resolve-memo counters to be the model's.
func (m *memoModel) check(t *testing.T, s *Server) {
	t.Helper()
	for _, c := range s.caches {
		path := c.info().path
		hits, misses := c.resolveCounts()
		if hits.Load() != m.hits[path] || misses.Load() != m.misses[path] {
			t.Fatalf("%s: resolve memo %d hits / %d misses, want %d / %d",
				path, hits.Load(), misses.Load(), m.hits[path], m.misses[path])
		}
	}
}

// TestResolveMemoRepliesMatchFreshServer: through the resolve memo, every
// reply is byte-equal to a fresh server's, whatever the memo held: for
// equivalent spellings of one request, for requests that do not resolve
// (never stored), for a request with no feasible plan (a cached 422), and
// for string-keyed fleet requests. Two slots and two cache entries make
// bodies overwrite each other's slots and memo hits find their reply
// evicted, so the compute that resolves the body again runs too. The memo's
// hit and miss counts are exactly a direct-mapped table's.
func TestResolveMemoRepliesMatchFreshServer(t *testing.T) {
	spaced := `{ "model": {"preset": "bert48"}, "p": 16, "mini_batch": 128, "max_b": 16, "platform": {"preset": "pizdaint"} }`
	reordered := `{"p":16,"platform":{"preset":"pizdaint"},"max_b":16,"mini_batch":128,"model":{"preset":"bert48"}}`
	implicit := `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}}`
	explicit := `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":64,"platform":{"preset":"pizdaint"}}`
	reqs := memoRequests([][2]string{
		{"/v1/plan", planBody},
		{"/v1/plan", spaced},
		{"/v1/plan", reordered},
		{"/v1/plan", implicit},
		{"/v1/plan", explicit},
		{"/v1/plan", `{"model":{"preset":"bert48"},"p":32,"mini_batch":128,"platform":{"preset":"pizdaint"}}`},
		{"/v1/plan", `{"model":{"name":"prime","layers":7,"hidden":256,"heads":4,"vocab":1000,"seq_len":64},"p":4,"mini_batch":8,"platform":{"preset":"pizdaint"}}`},
		{"/v1/plan", planBody + `{"again":true}`},
		{"/v1/plan", `{"model":{"preset":"bert48"},"p":1,"mini_batch":128,"platform":{"preset":"pizdaint"}}`},
		{"/v1/plan", strings.TrimSuffix(planBody, "}") + `,"bogus":1}`},
		{"/v1/plan", `not json`},
		{"/v1/plan", ``},
		{"/v1/fleet/plan", fleetBody},
		{"/v1/fleet/plan", " " + fleetBody},
		{"/v1/fleet/plan", fleetBody + `garbage`},
		{"/v1/fleet/simulate", fleetClassicSimBody},
	})
	want := map[int]int{http.StatusOK: 9, http.StatusBadRequest: 6, http.StatusUnprocessableEntity: 1}
	got := map[int]int{}
	for _, r := range reqs {
		got[r.want.status]++
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fresh replies by status %v, want %v", got, want)
	}

	srv := New(Config{CacheCapacity: 2})
	h := srv.Handler()
	model := newMemoModel()
	for pass := range 3 {
		for i, r := range reqs {
			if got := serveBody(h, r.path, r.body); got != r.want {
				t.Fatalf("pass %d, request %d (%s %.60s): %d %.200s, want the fresh server's %d %.200s",
					pass, i, r.path, r.body, got.status, got.body, r.want.status, r.want.body)
			}
			model.see(srv, r)
		}
		// A body resent at once finds its own slot.
		for _, r := range []memoRequest{reqs[0], reqs[1], reqs[12]} {
			for range 2 {
				if got := serveBody(h, r.path, r.body); got != r.want {
					t.Fatalf("pass %d resend: %d %.200s, want %d %.200s", pass, got.status, got.body, r.want.status, r.want.body)
				}
				model.see(srv, r)
			}
		}
	}
	if model.hits["/v1/plan"] == 0 || model.hits["/v1/fleet/plan"] == 0 {
		t.Fatalf("the sequence never hits the memo: %v", model.hits)
	}
	model.check(t, srv)
}

// slotMates returns the first two tenant bodies whose digests pick the same
// slot of a table of n slots. SHA-256 is unseeded, so the search finds the
// same pair on every run.
func slotMates(t *testing.T, n int) (a, b []byte) {
	t.Helper()
	m := newResolveMemo[string](n)
	seen := map[int][]byte{}
	for k := range 4 * n {
		body := tenantBody(k)
		sum := digest(body)
		i := m.slot(&sum)
		if prev, ok := seen[i]; ok {
			return prev, body
		}
		seen[i] = body
	}
	t.Fatal("no two tenant bodies share a slot")
	return nil, nil
}

// TestResolveMemoSharedSlot: two bodies with different keys in one slot
// each get their own reply, byte-equal to a fresh server's; each overwrites
// the other, so every lookup after the first store misses.
func TestResolveMemoSharedSlot(t *testing.T) {
	const capacity = 64
	a, b := slotMates(t, capacity)
	reqs := memoRequests([][2]string{{"/v1/plan", string(a)}, {"/v1/plan", string(b)}})
	if reqs[0].want == reqs[1].want || reqs[0].want.status != http.StatusOK {
		t.Fatalf("slot mates must be two different plans: %d %.100s / %d %.100s",
			reqs[0].want.status, reqs[0].want.body, reqs[1].want.status, reqs[1].want.body)
	}
	srv := New(Config{CacheCapacity: capacity})
	h := srv.Handler()
	model := newMemoModel()
	for i := range 6 {
		r := reqs[i%2]
		if got := serveBody(h, r.path, r.body); got != r.want {
			t.Fatalf("request %d: %d %.200s, want %d %.200s", i, got.status, got.body, r.want.status, r.want.body)
		}
		model.see(srv, r)
	}
	if model.hits["/v1/plan"] != 0 {
		t.Fatalf("slot mates hit each other's slot %d times", model.hits["/v1/plan"])
	}
	model.check(t, srv)
}

// TestResolveMemoSharedSlotsUnderConcurrency: four callers send six bodies
// that share two slots; every reply is byte-equal to a fresh server's.
// make race-sweep runs it under the race detector.
func TestResolveMemoSharedSlotsUnderConcurrency(t *testing.T) {
	const capacity = 2
	bodies := make([][2]string, 6)
	for k := range bodies {
		bodies[k] = [2]string{"/v1/plan", string(tenantBody(k))}
	}
	reqs := memoRequests(bodies)
	srv := New(Config{CacheCapacity: capacity})
	h := srv.Handler()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				r := reqs[(g+i)%len(reqs)]
				if got := serveBody(h, r.path, r.body); got != r.want {
					errs <- fmt.Sprintf("caller %d request %d: %d %.200s, want %d %.200s", g, i, got.status, got.body, r.want.status, r.want.body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	hits, misses := srv.planCache.resolveCounts()
	if hits.Load()+misses.Load() != 240 || hits.Load() == 0 {
		t.Fatalf("resolve memo %d hits / %d misses, want 240 lookups with some hits", hits.Load(), misses.Load())
	}
}

// TestResolveMemoOverCapBody: a body over the 1 MiB cap gets the 400 a
// streamed decode of the capped body gives, byte for byte: the bytes read,
// then the cap's read error. The memo counts none of them.
func TestResolveMemoOverCapBody(t *testing.T) {
	huge := strings.Repeat(" ", 2<<20)
	cases := []struct{ name, body, msg string }{
		{"long-string", `{"model":{"name":"` + strings.Repeat("a", 2<<20) + `"}}`, "request body too large"},
		{"trailing-space", planBody + huge, "trailing data after JSON object"},
		{"early-syntax-error", `{"model":x` + huge, "invalid character 'x'"},
	}
	srv := New(Config{})
	h := srv.Handler()
	for _, tc := range cases {
		// The streamed decode: DecodeStrict reads the capped body itself.
		rec := httptest.NewRecorder()
		var req PlanRequest
		err := DecodeStrict(http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(tc.body)), 1<<20), &req)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: streamed decode error %v, want one with %q", tc.name, err, tc.msg)
		}
		httpd.WriteError(rec, http.StatusBadRequest, err.Error())
		want := reply{rec.Code, rec.Body.String()}
		if got := serveBody(h, "/v1/plan", tc.body); got != want {
			t.Fatalf("%s: %d %s, want %d %s", tc.name, got.status, got.body, want.status, want.body)
		}
	}
	if hits, misses := srv.planCache.resolveCounts(); hits.Load() != 0 || misses.Load() != 0 {
		t.Fatalf("over-cap bodies counted %d memo hits / %d misses, want none", hits.Load(), misses.Load())
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// rewindBody is a request body that can be read again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// maxMemoHitAllocs bounds a resolve-memo hit that is also a response-cache
// hit: the body buffer and the Content-Type header value. Resolving the
// body (a decoder, its buffer, the request's strings, the platform) costs
// several times that.
const maxMemoHitAllocs = 2

// TestResolveMemoHitAllocs pins what a memo hit allocates in the handler.
func TestResolveMemoHitAllocs(t *testing.T) {
	srv := New(Config{})
	body := []byte(planBody)
	rb := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	req.Body = rb
	w := discardWriter{http.Header{}}
	serve := func() {
		rb.Reset(body)
		srv.planCache.handle(w, req)
	}
	serve() // a memo miss, a cache miss: resolve, plan, store
	hits, _ := srv.planCache.resolveCounts()
	if allocs := testing.AllocsPerRun(100, serve); allocs > maxMemoHitAllocs {
		t.Fatalf("a memo hit allocates %.0f times, want at most %d", allocs, maxMemoHitAllocs)
	}
	if hits.Load() != 101 {
		t.Fatalf("%d memo hits, want 101", hits.Load())
	}
}
