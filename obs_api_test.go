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
// the engine serving replays from the short schedule.
func TestFacadeReplayMetrics(t *testing.T) {
	srv := chimera.NewServer(chimera.ServeConfig{CacheCapacity: 64, Registry: chimera.NewMetricsRegistry()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"model":{"name":"bench-l24-h1280-s512","layers":24,"hidden":1280,"heads":20,"vocab":50257,"seq_len":512},"p":8,"mini_batch":512,"platform":{"preset":"pizdaint"}}`
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
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`engine_replays_total{path="extended"} 12`, // three candidates × (two probes + two Eq. 1 replays)
		`engine_replays_total{path="full"} 0`,
		`engine_replays_total{path="refused"} 0`,
	} {
		if !strings.Contains(string(text), series+"\n") {
			t.Errorf("/metrics missing %q", series)
		}
	}
}
