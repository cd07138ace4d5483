package obs

import (
	"strconv"
	"strings"
	"sync"
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

// TestPrometheusHistogramNeverTorn renders a histogram while goroutines
// record into it. Every render must be a valid cumulative histogram: the
// finite buckets never decrease, and the +Inf bucket equals _count and is
// at least each finite bucket. Every snapshot's Count must equal the sum
// of its buckets.
func TestPrometheusHistogramNeverTorn(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("torn_seconds", "", L("k", "v"))
	const observers, renders = 4, 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(i*(g+1)%4096) * time.Microsecond)
				}
			}
		}(g)
	}
	defer func() { close(stop); wg.Wait() }()

	value := func(line string) uint64 {
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		return v
	}
	var b strings.Builder
	for n := 0; n < renders; n++ {
		snap := h.Snapshot()
		var sum uint64
		for _, c := range snap.Buckets {
			sum += c
		}
		if snap.Count != sum {
			t.Fatalf("snapshot %d: Count %d != bucket sum %d", n, snap.Count, sum)
		}

		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var finite, inf, count uint64
		var sawInf, sawCount bool
		for _, line := range strings.Split(b.String(), "\n") {
			switch {
			case strings.HasPrefix(line, `torn_seconds_bucket{k="v",le="+Inf"}`):
				inf, sawInf = value(line), true
			case strings.HasPrefix(line, "torn_seconds_bucket{"):
				v := value(line)
				if v < finite {
					t.Fatalf("render %d: bucket %q below the previous one (%d)", n, line, finite)
				}
				finite = v
			case strings.HasPrefix(line, "torn_seconds_count{"):
				count, sawCount = value(line), true
			}
		}
		if !sawInf || !sawCount {
			t.Fatalf("render %d: no +Inf bucket or _count:\n%s", n, b.String())
		}
		if inf != count || inf < finite {
			t.Fatalf("render %d: +Inf %d, _count %d, largest finite bucket %d", n, inf, count, finite)
		}
	}
}
