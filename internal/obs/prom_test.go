package obs

import (
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden pins the text exposition format byte-for-byte for a
// small registry with every instrument kind. Determinism (sorted families,
// sorted label signatures, cumulative buckets) is the contract the CI
// smokes' `curl /metrics | grep` assertions rely on.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve_shed_total", "requests shed by admission control").Add(3)
	r.Counter("serve_requests_total", "requests", L("endpoint", "plan")).Add(10)
	r.Counter("serve_requests_total", "requests", L("endpoint", "simulate")).Add(4)
	r.Gauge("serve_inflight", "requests executing now").Set(2)
	r.GaugeFunc("engine_cache_hit_ratio", "hit fraction", func() float64 { return 0.75 })
	r.CounterFunc("engine_cache_hits_total", "memo hits", func() uint64 { return 42 }, L("table", "schedules"))

	h := r.Histogram("serve_request_duration_seconds", "request latency", L("endpoint", "plan"))
	// 1024 ns sits exactly on a bucket lower bound (octave 10, sub 0 →
	// upper 1152 ns); 3072 ns on octave 11 sub 4 → upper 3328 ns.
	h.Observe(1024 * time.Nanosecond)
	h.Observe(1024 * time.Nanosecond)
	h.Observe(3072 * time.Nanosecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP engine_cache_hit_ratio hit fraction
# TYPE engine_cache_hit_ratio gauge
engine_cache_hit_ratio 0.75
# HELP engine_cache_hits_total memo hits
# TYPE engine_cache_hits_total counter
engine_cache_hits_total{table="schedules"} 42
# HELP serve_inflight requests executing now
# TYPE serve_inflight gauge
serve_inflight 2
# HELP serve_request_duration_seconds request latency
# TYPE serve_request_duration_seconds histogram
serve_request_duration_seconds_bucket{endpoint="plan",le="1.152e-06"} 2
serve_request_duration_seconds_bucket{endpoint="plan",le="3.328e-06"} 3
serve_request_duration_seconds_bucket{endpoint="plan",le="+Inf"} 3
serve_request_duration_seconds_sum{endpoint="plan"} 5.12e-06
serve_request_duration_seconds_count{endpoint="plan"} 3
# HELP serve_requests_total requests
# TYPE serve_requests_total counter
serve_requests_total{endpoint="plan"} 10
serve_requests_total{endpoint="simulate"} 4
# HELP serve_shed_total requests shed by admission control
# TYPE serve_shed_total counter
serve_shed_total 3
`
	if got != want {
		t.Fatalf("prometheus text drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusLabelEscaping: label values with quotes, backslashes and
// newlines must render escaped.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", L("k", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `x_total{k="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping drifted: %q does not contain %q", b.String(), want)
	}
}
