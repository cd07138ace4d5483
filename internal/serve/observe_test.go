package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"chimera/internal/obs"
)

// TestMetricsEndpoint: after traffic, GET /metrics serves Prometheus text
// with the serving, engine and fleet series the CI smoke asserts on.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/plan", planBody) // miss
	post(t, ts, "/v1/plan", planBody) // hit
	status, body := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	text := string(body)
	for _, series := range []string{
		`serve_requests_total{endpoint="plan"} 2`,
		`serve_request_duration_seconds_count{cache="miss",endpoint="plan"} 1`,
		`serve_request_duration_seconds_count{cache="hit",endpoint="plan"} 1`,
		`serve_cache_hits_total{cache="plan"} 1`,
		`serve_cache_misses_total{cache="plan"} 1`,
		"serve_inflight ",
		"serve_shed_total 0",
		`engine_cache_hits_total{table="outcomes"}`,
		"engine_evaluate_seconds_count",
		"fleet_replans_total 0",
		`fleet_allocator_bids_total{result="miss"} 0`,
		"# TYPE serve_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
	// Histograms must carry cumulative buckets ending in +Inf.
	if !strings.Contains(text, `serve_request_duration_seconds_bucket{cache="miss",endpoint="plan",le="+Inf"} 1`) {
		t.Error("missing +Inf bucket for the plan-miss histogram")
	}
}

// TestRequestIDHeader: every response carries X-Request-Id; a client-
// supplied ID is honored and distinct requests get distinct minted IDs.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id1 := resp.Header.Get("X-Request-Id")
	if id1 == "" {
		t.Fatal("no X-Request-Id on response")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id2 := resp.Header.Get("X-Request-Id"); id2 == id1 {
		t.Fatalf("two requests shared ID %q", id1)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-chosen-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-chosen-42" {
		t.Fatalf("client ID not honored: got %q", got)
	}

	// Only 1–128 bytes of [A-Za-z0-9._:-] are honored: a spaced ID would
	// forge fields in the text access log, and an over-long one is not
	// truncated into something the client never sent.
	for id, honored := range map[string]bool{
		"op-17":                     true,
		"node.3:run_7":              true,
		strings.Repeat("a", 128):    true,
		"x GET /v1/plan status=200": false,
		"tab\there":                 false,
		"quote\"d":                  false,
		strings.Repeat("a", 129):    false,
		"caf\u00e9":                 false,
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if honored && got != id {
			t.Errorf("valid client ID %q not echoed: got %q", id, got)
		}
		if !honored && (got == id || got == "" || !validRequestID(got)) {
			t.Errorf("client ID %q: echoed %q, want a freshly minted ID", id, got)
		}
	}
}

// TestDebugRequests: the flight recorder retains recent spans with phases
// and serves them newest-first, client IDs attached.
func TestDebugRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{FlightRecorder: 8})
	post(t, ts, "/v1/plan", planBody)
	post(t, ts, "/v1/plan", planBody)
	status, body := get(t, ts, "/debug/requests")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp DebugRequestsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Capacity != 8 || resp.Total < 2 {
		t.Fatalf("recorder state: %+v", resp)
	}
	// Newest span first is the /debug/requests GET itself is not recorded
	// until it finishes, so the head is the second plan (a cache hit).
	head := resp.Requests[0]
	if head.Name != "plan" || head.Attrs["cache"] != "hit" || head.Attrs["status"] != "200" {
		t.Fatalf("head span: %+v", head)
	}
	if head.ID == "" {
		t.Fatal("span has no request ID")
	}
	// The cache-miss plan span must carry the full phase chain.
	var miss *obs.SpanRecord
	for i := range resp.Requests {
		if resp.Requests[i].Name == "plan" && resp.Requests[i].Attrs["cache"] == "miss" {
			miss = &resp.Requests[i]
			break
		}
	}
	if miss == nil {
		t.Fatal("no recorded miss span")
	}
	var names []string
	for _, p := range miss.Phases {
		names = append(names, p.Name)
	}
	want := []string{"decode", "cache", "plan", "encode"}
	if len(names) != len(want) {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases = %v, want %v", names, want)
		}
	}
}

// TestJSONAccessLog: with LogFormat json every request emits one JSON line
// carrying the same request ID the response header returned.
func TestJSONAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	_, ts := newTestServer(t, Config{AccessLog: w, LogFormat: "json"})
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantID := resp.Header.Get("X-Request-Id")

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1: %q", len(lines), lines)
	}
	var entry struct {
		Time   string  `json:"time"`
		ID     string  `json:"id"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMS  float64 `json:"dur_ms"`
		Cache  string  `json:"cache"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line is not JSON: %q: %v", lines[0], err)
	}
	if entry.ID != wantID {
		t.Fatalf("log ID %q != header ID %q", entry.ID, wantID)
	}
	if entry.Method != "POST" || entry.Path != "/v1/plan" || entry.Status != 200 || entry.Cache != "miss" {
		t.Fatalf("log entry: %+v", entry)
	}
	if entry.Time == "" || entry.DurMS < 0 {
		t.Fatalf("log entry missing time/duration: %+v", entry)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestStatsEmbedsMetrics: /v1/stats keeps its legacy fields and appends a
// metrics snapshot with counters and histogram quantiles.
func TestStatsEmbedsMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/plan", planBody)
	status, body := get(t, ts, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp StatsResponse
	if err := DecodeStrict(bytes.NewReader(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Requests.Plan != 1 {
		t.Fatalf("legacy plan count = %d, want 1", resp.Requests.Plan)
	}
	if resp.Metrics == nil {
		t.Fatal("stats response has no metrics snapshot")
	}
	if got := resp.Metrics.Counters[`serve_requests_total{endpoint="plan"}`]; got != 1 {
		t.Fatalf("metrics plan counter = %d, want 1", got)
	}
	h, ok := resp.Metrics.Histograms[`serve_request_duration_seconds{cache="miss",endpoint="plan"}`]
	if !ok || h.Count != 1 || h.P50Seconds <= 0 {
		t.Fatalf("plan-miss histogram digest: %+v (present=%v)", h, ok)
	}
}

// TestPprofOptIn: /debug/pprof/ is 404 by default and serves when enabled.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if status, _ := get(t, off, "/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("pprof mounted without opt-in (status %d)", status)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	if status, body := get(t, on, "/debug/pprof/"); status != http.StatusOK {
		t.Fatalf("pprof index status %d: %s", status, body)
	}
}

// TestShedObservability: shed requests surface in serve_shed_total and get
// recorded spans with status 429.
func TestShedObservability(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	// Fill the only slot so the next request sheds.
	s.admission.TryAcquire()
	status, _ := post(t, ts, "/v1/plan", planBody)
	s.admission.Release()
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", status)
	}
	status, body := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatal("metrics unavailable")
	}
	if !strings.Contains(string(body), "serve_shed_total 1") {
		t.Error("shed not counted in serve_shed_total")
	}
	status, body = get(t, ts, "/debug/requests")
	if status != http.StatusOK {
		t.Fatal("debug/requests unavailable")
	}
	if !strings.Contains(string(body), `"status":"429"`) {
		t.Error("shed request span not recorded with status 429")
	}
}
