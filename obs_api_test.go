package chimera_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chimera"
)

// TestFacadeMetrics: a facade-built registry attached through ServeConfig
// is the one /metrics renders, and the snapshot type round-trips through
// the facade aliases.
func TestFacadeMetrics(t *testing.T) {
	reg := chimera.NewMetricsRegistry()
	srv := chimera.NewServer(chimera.ServeConfig{CacheCapacity: 64, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp.StatusCode)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if !strings.Contains(string(text), `serve_requests_total{endpoint="plan"} 1`) {
		t.Fatalf("/metrics missing the plan request:\n%s", text)
	}

	var snap chimera.MetricsSnapshot = reg.Snapshot()
	if snap.Counters[`serve_requests_total{endpoint="plan"}`] != 1 {
		t.Fatalf("facade snapshot missing the plan request: %+v", snap.Counters)
	}
}

// TestFacadeReplayMetrics: after one plan whose ranking holds a candidate
// with N ≥ 3D (the first request of bench/golden/plan.json), /metrics shows
// that a homogeneous plan never touches the schedule memo — its critical
// paths, compute terms and free regions are closed-form — and after the
// same request on a cluster uniformly 1.5× slower, that the engine builds
// that plan's one D = 4 schedule once and replays Eq. 1's two terms on it:
// one miss, one hit.
func TestFacadeReplayMetrics(t *testing.T) {
	srv := chimera.NewServer(chimera.ServeConfig{CacheCapacity: 64, Registry: chimera.NewMetricsRegistry()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const model = `"model":{"name":"bench-l24-h1280-s512","layers":24,"hidden":1280,"heads":20,"vocab":50257,"seq_len":512},"p":8,"mini_batch":512,"platform":{"preset":"pizdaint"}`
	for _, step := range []struct {
		body   string
		series []string
	}{
		{`{` + model + `}`, []string{
			`engine_cache_misses_total{table="schedules"} 0`,
			`engine_cache_hits_total{table="schedules"} 0`,
		}},
		{`{` + model + `,"speed_factors":[1.5,1.5,1.5,1.5]}`, []string{
			`engine_cache_misses_total{table="schedules"} 1`,
			`engine_cache_hits_total{table="schedules"} 1`,
		}},
	} {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status %d", resp.StatusCode)
		}
		metrics, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(metrics.Body)
		metrics.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, series := range step.series {
			if !strings.Contains(string(text), series+"\n") {
				t.Errorf("after %s: /metrics missing %q", step.body, series)
			}
		}
	}
}
