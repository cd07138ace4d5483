package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryInterning: equal (name, labels) return the same instrument,
// label order does not matter, different labels make different series.
func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "requests", L("endpoint", "plan"), L("cache", "hit"))
	b := r.Counter("requests_total", "requests", L("cache", "hit"), L("endpoint", "plan"))
	if a != b {
		t.Fatal("same series interned to different counters")
	}
	c := r.Counter("requests_total", "requests", L("endpoint", "plan"), L("cache", "miss"))
	if a == c {
		t.Fatal("distinct label values shared a counter")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter value = %d, want 3", b.Value())
	}
	if c.Value() != 0 {
		t.Fatalf("sibling counter value = %d, want 0", c.Value())
	}
	h1 := r.Histogram("latency_seconds", "latency")
	h2 := r.Histogram("latency_seconds", "latency")
	if h1 != h2 {
		t.Fatal("same histogram series interned to different handles")
	}
}

// TestNilRegistry: the disabled-observability path must be inert end to
// end — nil registry, nil instruments, no panics.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "")
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Inc()
	g.Dec()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments not inert")
	}
	r.CounterFunc("f_total", "", func() uint64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestGaugeCounterBasics pins the numeric behavior.
func TestGaugeCounterBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight", "")
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	g.Add(-5)
	if g.Value() != -4 {
		t.Fatalf("gauge = %d, want -4", g.Value())
	}
	c := r.Counter("total", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

// TestFuncMetrics: CounterFunc/GaugeFunc read through at snapshot time and
// re-registration replaces the function.
func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := uint64(7)
	r.CounterFunc("hits_total", "cache hits", func() uint64 { return v }, L("table", "a"))
	snap := r.Snapshot()
	if got := snap.Counters[`hits_total{table="a"}`]; got != 7 {
		t.Fatalf("counter func = %d, want 7", got)
	}
	v = 9
	if got := r.Snapshot().Counters[`hits_total{table="a"}`]; got != 9 {
		t.Fatalf("counter func after update = %d, want 9", got)
	}
	r.CounterFunc("hits_total", "cache hits", func() uint64 { return 100 }, L("table", "a"))
	if got := r.Snapshot().Counters[`hits_total{table="a"}`]; got != 100 {
		t.Fatalf("re-registered counter func = %d, want 100", got)
	}
	r.GaugeFunc("ratio", "", func() float64 { return 0.5 })
	if got := r.Snapshot().Gauges["ratio"]; got != 0.5 {
		t.Fatalf("gauge func = %g, want 0.5", got)
	}
}

// TestConcurrentRegistry: concurrent interning and snapshotting under
// -race.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	names := []string{"a_total", "b_total", "c_seconds"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter(names[j%2], "help").Inc()
				r.Histogram(names[2], "help").Observe(1000)
				if j%50 == 0 {
					_ = r.Snapshot()
					_ = r.WritePrometheus(&strings.Builder{})
				}
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["a_total"]+snap.Counters["b_total"] != 8*200 {
		t.Fatalf("lost counter increments: %v", snap.Counters)
	}
	if snap.Histograms["c_seconds"].Count != 8*200 {
		t.Fatalf("lost histogram records: %v", snap.Histograms["c_seconds"])
	}
}
