package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestBucketGeometry pins the bucket map: indices are monotone in the
// value, every value lands inside its bucket's [lower, upper) range, and
// bounds are monotone across buckets.
func TestBucketGeometry(t *testing.T) {
	prev := -1
	for _, ns := range []uint64{0, 1, 2, 3, 7, 8, 9, 100, 1023, 1024, 1025, 1 << 20, 1<<40 - 1, 1 << 40, 1 << 50, math.MaxUint64} {
		i := bucketIndex(ns)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", ns, i)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotone: ns=%d got %d after %d", ns, i, prev)
		}
		prev = i
		if i < histBuckets-1 {
			lo, hi := bucketLowerNS(i), bucketUpperNS(i)
			v := float64(ns)
			if ns == 0 {
				v = 1 // Observe clamps 0 → 1
			}
			if v < lo || v >= hi {
				t.Fatalf("ns=%d in bucket %d outside [%g, %g)", ns, i, lo, hi)
			}
		}
	}
	for i := 1; i < histBuckets; i++ {
		if !(bucketUpperNS(i) > bucketUpperNS(i-1)) {
			t.Fatalf("bucket upper bounds not strictly increasing at %d", i)
		}
		if bucketLowerNS(i) != bucketUpperNS(i-1) {
			t.Fatalf("bucket %d lower %g != bucket %d upper %g", i, bucketLowerNS(i), i-1, bucketUpperNS(i-1))
		}
	}
}

// TestHistogramQuantileOracle drives random workloads through the histogram
// and checks p50/p95/p99 against the exact sorted-sample quantile: the log
// buckets (8 per octave) bound the relative error at one bucket width.
func TestHistogramQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	workloads := map[string]func() time.Duration{
		// Log-normal-ish: exp of a gaussian, centered near 100 µs.
		"lognormal": func() time.Duration {
			return time.Duration(100e3 * math.Exp(rng.NormFloat64()))
		},
		// Uniform microseconds to 10 ms.
		"uniform": func() time.Duration {
			return time.Duration(rng.Int63n(10e6) + 1)
		},
		// Bimodal: fast cache hits plus slow misses.
		"bimodal": func() time.Duration {
			if rng.Intn(10) < 8 {
				return time.Duration(50e3 + rng.Int63n(10e3))
			}
			return time.Duration(20e6 + rng.Int63n(5e6))
		},
	}
	for name, gen := range workloads {
		t.Run(name, func(t *testing.T) {
			h := &Histogram{}
			const n = 20000
			samples := make([]float64, n)
			for i := range samples {
				d := gen()
				samples[i] = float64(d)
				h.Observe(d)
			}
			sort.Float64s(samples)
			snap := h.Snapshot()
			for _, q := range []float64{0.50, 0.95, 0.99} {
				idx := int(math.Ceil(q*float64(n))) - 1
				exact := samples[idx]
				got := float64(snap.Quantile(q))
				relErr := math.Abs(got-exact) / exact
				// One sub-bucket is 2^(1/8)-1 ≈ 9% wide; allow 15% for
				// interpolation slack at bucket edges.
				if relErr > 0.15 {
					t.Errorf("q=%.2f: got %.0f ns, exact %.0f ns (rel err %.1f%%)",
						q, got, exact, 100*relErr)
				}
			}
			if got := snap.Count; got != n {
				t.Fatalf("count = %d, want %d", got, n)
			}
		})
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while
// snapshots run — run under -race this is the lock-free record path's
// correctness gate; the final count and bucket sum must be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent reader
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot().Quantile(0.99)
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snap := h.Snapshot()
	if snap.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", snap.Count, goroutines*per)
	}
	var bucketSum uint64
	for _, c := range snap.Buckets {
		bucketSum += c
	}
	if bucketSum != snap.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, snap.Count)
	}
}

// TestHistogramEdgeCases: empty, zero and negative durations, overflow.
func TestHistogramEdgeCases(t *testing.T) {
	h := &Histogram{}
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	h.Observe(0)
	h.Observe(-time.Second)
	if c := h.Snapshot().Count; c != 2 {
		t.Fatalf("count = %d, want 2", c)
	}
	if q := h.Snapshot().Quantile(0.5); q > 2 {
		t.Fatalf("zero-valued quantile = %v, want ~1ns", q)
	}
	// Overflow bucket: beyond 2^40 ns.
	h2 := &Histogram{}
	h2.Observe(30 * time.Minute)
	if q := h2.Snapshot().Quantile(0.5); q < time.Duration(1)<<40 {
		t.Fatalf("overflow quantile = %v, want >= 2^40 ns", q)
	}
	// Nil receiver no-ops.
	var nilH *Histogram
	nilH.Observe(time.Second)
	nilH.Since(time.Now())
	if s := nilH.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not inert")
	}
}

// TestHistogramFootprint pins a histogram to its bucket array plus the
// running sum. A serve replica holds dozens of them for its whole life.
func TestHistogramFootprint(t *testing.T) {
	if got, limit := unsafe.Sizeof(Histogram{}), uintptr((histBuckets+1)*8); got > limit {
		t.Fatalf("sizeof(Histogram) = %d bytes, want <= %d", got, limit)
	}
}

// BenchmarkHistogramObserve is the serial record path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i&1023) * time.Microsecond)
	}
}

// BenchmarkHistogramObserveParallel is the record path under contention:
// run it at -cpu 1,2,... to see what every recorder sharing one bucket
// array costs.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := &Histogram{}
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			h.Observe(time.Duration(i&1023) * time.Microsecond)
		}
	})
}

// BenchmarkHistogramSnapshot is one read of every bucket, what each
// histogram series costs a /metrics or /v1/stats render.
func BenchmarkHistogramSnapshot(b *testing.B) {
	h := &Histogram{}
	for i := 0; i < 1024; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Snapshot().Count != 1024 {
			b.Fatal("snapshot lost observations")
		}
	}
}
