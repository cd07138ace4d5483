package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

const planBody = `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`

// TestPlanMatchesInProcess: the served /v1/plan body must be byte-identical
// to encoding an in-process PlanOn result through the same codec — the
// service adds transport, not behavior. The rows span the presets' corners:
// a capped micro-batch, the largest model, and the second platform.
func TestPlanMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		planBody,
		`{"model":{"preset":"gpt2"},"p":64,"mini_batch":512,"platform":{"preset":"pizdaint"}}`,
		`{"model":{"preset":"bert48-512"},"p":16,"mini_batch":256,"platform":{"preset":"v100"}}`,
	} {
		status, served := post(t, ts, "/v1/plan", body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, status, served)
		}

		var req PlanRequest
		if err := DecodeStrict(strings.NewReader(body), &req); err != nil {
			t.Fatal(err)
		}
		preq, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		preds, err := perfmodel.PlanOn(engine.New(engine.Workers(1)), preq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(NewPlanResponse(preq.Model.Name, preq.P, preq.MiniBatch, preds))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want) {
			t.Fatalf("%s: served plan differs from in-process plan:\nserved: %s\nlocal:  %s", body, served, want)
		}
	}
}

// TestSimulateMatchesEngine: /v1/simulate equals a direct engine evaluation.
func TestSimulateMatchesEngine(t *testing.T) {
	simBody := `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},
		"micro_batch":4,"w":4,"auto_recompute":true,"platform":{"preset":"pizdaint"}}`
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/simulate", simBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var req SimulateRequest
	if err := DecodeStrict(strings.NewReader(simBody), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	out := engine.New(engine.Workers(1)).Evaluate(spec)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	want, err := json.Marshal(SimulateResponse{out.Result, out.Recompute})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served simulate differs from engine:\nserved: %s\nlocal:  %s", body, want)
	}
}

// TestAnalyzeAndRender: /v1/analyze returns Table 2 numbers and /v1/render
// returns every format, matching the in-process renderers.
func TestAnalyzeAndRender(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/analyze", `{"schedule":{"scheme":"chimera","d":4,"n":4}}`)
	if status != http.StatusOK {
		t.Fatalf("analyze status %d: %s", status, body)
	}
	var a schedule.Analysis
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if a.Scheme != "chimera" || a.D != 4 || len(a.ActivationsMa) != 4 || !a.Synchronous {
		t.Fatalf("implausible analysis: %+v", a)
	}

	sched, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantASCII, err := trace.ASCII(sched, schedule.UnitEqual)
	if err != nil {
		t.Fatal(err)
	}
	wantSVG, err := trace.SVG(sched, schedule.UnitPractical)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body, format, want string
	}{
		{`{"schedule":{"scheme":"chimera","d":4,"n":4}}`, "ascii", wantASCII},
		{`{"schedule":{"scheme":"chimera","d":4,"n":4},"format":"svg","cost":"practical"}`, "svg", wantSVG},
		{`{"schedule":{"scheme":"chimera","d":4,"n":4},"format":"chrome"}`, "chrome", ""},
	} {
		status, body := post(t, ts, "/v1/render", tc.body)
		if status != http.StatusOK {
			t.Fatalf("render %s status %d: %s", tc.format, status, body)
		}
		var r RenderResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Format != tc.format || r.Content == "" {
			t.Fatalf("render %s: format %q, empty=%v", tc.format, r.Format, r.Content == "")
		}
		if tc.want != "" && r.Content != tc.want {
			t.Fatalf("render %s differs from in-process renderer", tc.format)
		}
	}
}

// TestSchedulesAndHealth: the discovery and health endpoints.
func TestSchedulesAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts, "/v1/schedules")
	if status != http.StatusOK {
		t.Fatalf("schedules status %d", status)
	}
	var sr SchedulesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Schemes) != 7 || len(sr.Models) != 4 || len(sr.Platforms) != 2 || len(sr.ConcatModes) != 3 {
		t.Fatalf("incomplete vocabulary: %+v", sr)
	}
	// Every advertised scheme must actually be accepted by the analyzer.
	for _, scheme := range sr.Schemes {
		body := fmt.Sprintf(`{"schedule":{"scheme":%q,"d":4,"n":4}}`, scheme)
		if status, raw := post(t, ts, "/v1/analyze", body); status != http.StatusOK {
			t.Fatalf("advertised scheme %q rejected: %d %s", scheme, status, raw)
		}
	}
	status, body = get(t, ts, "/healthz")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz %d: %s", status, body)
	}
	// /healthz carries build identity and uptime alongside liveness.
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || !strings.HasPrefix(h.GoVersion, "go") {
		t.Fatalf("healthz missing build identity: %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("negative uptime %g", h.UptimeSeconds)
	}
	time.Sleep(10 * time.Millisecond)
	_, body = get(t, ts, "/healthz")
	var h2 HealthResponse
	if err := json.Unmarshal(body, &h2); err != nil {
		t.Fatal(err)
	}
	if !(h2.UptimeSeconds > h.UptimeSeconds) {
		t.Fatalf("uptime did not advance: %g then %g", h.UptimeSeconds, h2.UptimeSeconds)
	}
}

// TestStrictValidation: malformed requests are rejected with 400 and a JSON
// error body; the engine is never consulted.
func TestStrictValidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"unknown-field", "/v1/plan", `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"},"bogus":1}`},
		{"trailing-data", "/v1/plan", planBody + `{"again":true}`},
		{"preset-and-inline-model", "/v1/plan", `{"model":{"preset":"bert48","layers":4},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}}`},
		{"unknown-model", "/v1/plan", `{"model":{"preset":"bert9000"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}}`},
		{"missing-platform", "/v1/plan", `{"model":{"preset":"bert48"},"p":16,"mini_batch":128}`},
		{"bad-p", "/v1/plan", `{"model":{"preset":"bert48"},"p":1,"mini_batch":128,"platform":{"preset":"pizdaint"}}`},
		{"unknown-scheme", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"nope","d":4,"n":4},"micro_batch":4,"w":4,"platform":{"preset":"pizdaint"}}`},
		{"concat-on-baseline", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"gpipe","d":4,"n":4,"concat":"doubling"},"micro_batch":4,"w":4,"platform":{"preset":"pizdaint"}}`},
		{"bad-sync", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},"micro_batch":4,"w":4,"sync":"psychic","platform":{"preset":"pizdaint"}}`},
		{"recompute-conflict", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},"micro_batch":4,"w":4,"recompute":true,"auto_recompute":true,"platform":{"preset":"pizdaint"}}`},
		{"bad-format", "/v1/render", `{"schedule":{"scheme":"chimera","d":4,"n":4},"format":"png"}`},
		{"bad-cost", "/v1/render", `{"schedule":{"scheme":"chimera","d":4,"n":4},"cost":"random"}`},
		{"bad-d", "/v1/analyze", `{"schedule":{"scheme":"chimera","d":0,"n":4}}`},
		// Size caps: one admitted request must not be able to OOM the
		// daemon that admission control protects.
		{"huge-schedule", "/v1/analyze", `{"schedule":{"scheme":"gpipe","d":100000,"n":100000}}`},
		{"huge-schedule-product", "/v1/render", `{"schedule":{"scheme":"gpipe","d":4096,"n":4096}}`},
		{"huge-p", "/v1/plan", `{"model":{"preset":"bert48"},"p":1000000000,"mini_batch":512,"platform":{"preset":"pizdaint"}}`},
		{"huge-minibatch", "/v1/plan", `{"model":{"preset":"bert48"},"p":16,"mini_batch":1000000000,"platform":{"preset":"pizdaint"}}`},
		{"huge-inline-model", "/v1/plan", `{"model":{"name":"big","layers":2000000,"hidden":4,"heads":4,"vocab":4,"seq_len":4},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}}`},
		{"huge-w", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},"micro_batch":4,"w":1000000000,"platform":{"preset":"pizdaint"}}`},
		// Inline platform parameters that would drive NaN or negative
		// times through the simulator.
		{"negative-eff-half-b", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},"micro_batch":4,"w":2,"platform":{"device":{"peak_flops":1e12,"mem_bytes":8589934592,"eff_half_b":-2},"network":{"alpha":1e-6,"beta":1e-9}}}`},
		{"bad-eff-floor", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},"micro_batch":4,"w":2,"platform":{"device":{"peak_flops":1e12,"mem_bytes":8589934592,"eff_floor":1.5},"network":{"alpha":1e-6,"beta":1e-9}}}`},
		{"negative-beta-p2p", "/v1/simulate", `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},"micro_batch":4,"w":2,"platform":{"device":{"peak_flops":1e12,"mem_bytes":8589934592},"network":{"alpha":1e-6,"beta":1e-9,"beta_p2p":-1}}}`},
	}
	for _, tc := range cases {
		status, body := post(t, ts, tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, status, body)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: non-JSON error body %s", tc.name, body)
		}
	}
	if got := srv.Snapshot().ClientErrors; got != uint64(len(cases)) {
		t.Fatalf("client_errors = %d, want %d", got, len(cases))
	}
	// An invalid schedule never reaches the engine's schedule cache.
	if st := srv.Engine().Stats(); st.ScheduleMisses != 0 {
		t.Fatalf("validation leaked %d schedule constructions into the engine", st.ScheduleMisses)
	}
}

// TestSpeedFactorsAtExactBounds: the documented bounds are inclusive — a
// factor of exactly 1e-6 or 1e6 must be accepted by /v1/simulate, while
// values one notch beyond stay rejected.
func TestSpeedFactorsAtExactBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mk := func(factors string) string {
		return `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},
			"micro_batch":4,"w":4,"auto_recompute":true,"speed_factors":` + factors + `,"platform":{"preset":"pizdaint"}}`
	}
	for _, ok := range []string{`[1e-6,1,1,1]`, `[1,1,1,1e6]`, `[1e-6,1,1,1e6]`} {
		status, body := post(t, ts, "/v1/simulate", mk(ok))
		if status != http.StatusOK {
			t.Errorf("factors %s at the exact bounds rejected: %d %s", ok, status, body)
		}
	}
	for _, bad := range []string{`[9.999999e-7,1,1,1]`, `[1,1,1,1.0000001e6]`} {
		status, body := post(t, ts, "/v1/simulate", mk(bad))
		if status != http.StatusBadRequest {
			t.Errorf("factors %s beyond the bounds accepted: %d %s", bad, status, body)
		}
	}
}

// TestPlanCacheNormalizesMaxB: max_b omitted and max_b=64 (PlanOn's
// default) must share one plan-cache entry.
func TestPlanCacheNormalizesMaxB(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	implicit := `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}}`
	explicit := `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":64,"platform":{"preset":"pizdaint"}}`
	_, b1 := post(t, ts, "/v1/plan", implicit)
	_, b2 := post(t, ts, "/v1/plan", explicit)
	if !bytes.Equal(b1, b2) {
		t.Fatal("implicit and explicit default max_b produced different plans")
	}
	if st := srv.Snapshot().PlanCache; st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("plan_cache = %+v, want the two requests to share one entry", st)
	}
}

// TestInfeasiblePlanIs422: a well-formed but unsatisfiable request is 422.
func TestInfeasiblePlanIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A 7-layer model admits no even stage count D, so the planner's
	// candidate set is empty.
	status, body := post(t, ts, "/v1/plan", `{"model":{"name":"prime","layers":7,"hidden":256,"heads":4,"vocab":1000,"seq_len":64},"p":4,"mini_batch":8,"platform":{"preset":"pizdaint"}}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (want 422): %s", status, body)
	}
}

// TestMethodNotAllowed: POST endpoints reject GET and vice versa.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _ := get(t, ts, "/v1/plan")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan status %d, want 405", status)
	}
	status, _ = post(t, ts, "/v1/stats", `{}`)
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats status %d, want 405", status)
	}
}

// TestAdmissionControlSheds: with every in-flight slot held, a heavy request
// is shed immediately with 429 + Retry-After while health/stats still serve.
func TestAdmissionControlSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 2})
	srv.admission.TryAcquire()
	srv.admission.TryAcquire()
	defer func() { srv.admission.Release(); srv.admission.Release() }()

	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 body not a JSON error: %v", err)
	}
	if got := srv.Snapshot().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// Cheap endpoints bypass admission and keep answering under overload.
	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthz sheddable: %d", status)
	}
	if status, _ := get(t, ts, "/v1/stats"); status != http.StatusOK {
		t.Fatalf("stats sheddable: %d", status)
	}
}

// TestShedRetryAfterDuringDrain: a shed before draining hints a 1-second
// retry, but once BeginDrain flips, the hint must cover the remaining drain
// window plus the shutdown bound — a router backing off for that long comes
// back after the replica is gone instead of hammering a dying listener.
func TestShedRetryAfterDuringDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, DrainDelay: 5 * time.Second, DrainTimeout: 10 * time.Second})
	srv.admission.TryAcquire() // hold the only slot so every heavy request sheds
	defer srv.admission.Release()

	shed := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		return resp
	}

	if ra := shed().Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("pre-drain Retry-After %q, want \"1\"", ra)
	}

	srv.BeginDrain()
	ra, err := strconv.Atoi(shed().Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("draining Retry-After not an integer: %v", err)
	}
	// Remaining drain ≈ DrainDelay + DrainTimeout = 15s at this instant.
	if ra < 10 || ra > 15 {
		t.Fatalf("draining Retry-After %ds, want it to cover the remaining drain (≈15s)", ra)
	}
	// Admitted work still serves during the drain window (drain-route-around
	// depends on the replica answering while routers observe /readyz flip).
	srv.admission.Release()
	if status, body := post(t, ts, "/v1/plan", planBody); status != http.StatusOK {
		t.Fatalf("admitted request during drain: %d %s", status, body)
	}
	srv.admission.TryAcquire()
}

// TestOverloadCleanAndNoGoroutineLeak: a burst far above MaxInflight yields
// only 200s and 429s (no transport errors), accepted+shed accounts for every
// request, and the server does not leak goroutines.
func TestOverloadCleanAndNoGoroutineLeak(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	// Warm one key so accepted requests are fast.
	if status, body := post(t, ts, "/v1/plan", planBody); status != http.StatusOK {
		t.Fatalf("warmup: %d %s", status, body)
	}

	before := runtime.NumGoroutine()
	const burst = 32
	statuses := make([]int, burst)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	close(start)
	wg.Wait()

	var ok, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("request %d: unexpected status %d", i, st)
		}
	}
	if ok == 0 {
		t.Fatal("overload burst: nothing was admitted")
	}
	snap := srv.Snapshot()
	if snap.Shed != uint64(shed) {
		t.Fatalf("shed counter %d != observed 429s %d", snap.Shed, shed)
	}
	if ok+shed != burst {
		t.Fatalf("accepted %d + shed %d != offered %d", ok, shed, burst)
	}

	// Goroutines must settle back (allow slack for the HTTP client pool).
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+5 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before burst, %d after", before, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestGracefulDrain: cancelling the serve context lets the in-flight request
// finish (200, full body) before Serve returns.
func TestGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{DrainTimeout: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// A cold plan over a large grid takes long enough to still be in
	// flight when we cancel.
	body := `{"model":{"preset":"gpt2"},"p":64,"mini_batch":512,"platform":{"preset":"pizdaint"}}`
	type result struct {
		status int
		err    error
		n      int
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			resc <- result{err: err}
			return
		}
		resc <- result{status: resp.StatusCode, n: len(raw)}
	}()
	time.Sleep(30 * time.Millisecond) // let the request reach the handler
	cancel()
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK || r.n == 0 {
		t.Fatalf("in-flight request: status %d, %d body bytes", r.status, r.n)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	// The listener is closed: new connections must be refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestWarmCacheServesFasterAndCountsHits: the response cache absorbs
// repeats of one plan request, and a different request that plans the same
// per-pipeline problems — twice the workers and twice the mini-batch, so
// every depth the first one planned has the same micro-batch count — hits
// the engine's caches (visible in /v1/stats): the amortization the daemon
// exists for.
func TestWarmCacheServesFasterAndCountsHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheCapacity: 512})
	for i := 0; i < 3; i++ {
		if status, body := post(t, ts, "/v1/plan", planBody); status != http.StatusOK {
			t.Fatalf("pass %d: %d %s", i, status, body)
		}
	}
	st := srv.Snapshot()
	if st.Requests.Plan != 3 {
		t.Fatalf("plan counter = %d, want 3", st.Requests.Plan)
	}
	// The response cache absorbs the repeats: one miss, two hits.
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 2 {
		t.Fatalf("plan_cache = %+v, want 1 miss / 2 hits", st.PlanCache)
	}
	scaled := strings.Replace(strings.Replace(planBody, `"p":16`, `"p":32`, 1), `"mini_batch":128`, `"mini_batch":256`, 1)
	if status, body := post(t, ts, "/v1/plan", scaled); status != http.StatusOK {
		t.Fatalf("scaled request: %d %s", status, body)
	}
	st = srv.Snapshot()
	if st.Engine.CacheHitRate <= 0 {
		t.Fatalf("no cache hits after a plan of the same per-pipeline problems: %+v", st.Engine)
	}
	if st.Engine.CacheCapacity != 512 {
		t.Fatalf("cache_capacity = %d, want 512", st.Engine.CacheCapacity)
	}
}

// TestDecodeStrictTrailingGarbageVariants guards the codec helper directly.
func TestDecodeStrictTrailingGarbageVariants(t *testing.T) {
	var v struct {
		A int `json:"a"`
	}
	if err := DecodeStrict(strings.NewReader(`{"a":1}`), &v); err != nil || v.A != 1 {
		t.Fatalf("valid body rejected: %v", err)
	}
	for _, bad := range []string{`{"a":1} 2`, `{"a":1}{"a":2}`, `{"a":1,"b":2}`, `not json`} {
		if err := DecodeStrict(strings.NewReader(bad), &v); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// TestSimulateOOMIsReported: an OOM configuration is a 200 with oom=true
// (the paper's figures annotate OOM; it is data, not an error).
func TestSimulateOOMIsReported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"model":{"preset":"gpt2"},"schedule":{"scheme":"gpipe","d":4,"n":64},
		"micro_batch":8,"w":1,"platform":{"preset":"pizdaint"}}`
	status, raw := post(t, ts, "/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var r SimulateResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if !r.OOM {
		t.Fatalf("expected OOM for 64 stored micro-batches of GPT-2 on a P100: %+v", r)
	}
}

// TestCustomModelAndPlatform: inline (non-preset) model and platform refs
// resolve and simulate.
func TestCustomModelAndPlatform(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"model":{"name":"tiny","layers":8,"hidden":256,"heads":4,"vocab":1000,"seq_len":64},
		"schedule":{"scheme":"chimera","d":4,"n":4},"micro_batch":2,"w":1,
		"platform":{"device":{"name":"toy","peak_flops":1e12,"mem_bytes":%d},"network":{"alpha":1e-6,"beta":1e-9}}}`, int64(8)<<30)
	status, raw := post(t, ts, "/v1/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var r SimulateResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.IterTime <= 0 || r.Throughput <= 0 {
		t.Fatalf("implausible result: %+v", r)
	}
}
