package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: durations in nanoseconds land in log-spaced
// buckets — histSubCount sub-buckets per power-of-two octave — so the whole
// range from 1 ns to ~18 minutes (2^40 ns) is covered by a fixed,
// preallocated array and any quantile is reproducible to within one
// sub-bucket's width (2^(1/8) ≈ +9% relative). Values beyond the last
// octave fall into a single overflow bucket.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // 8 sub-buckets per octave
	histOctaves  = 40               // 1 ns .. 2^40 ns ≈ 18.3 min
	histBuckets  = histOctaves*histSubCount + 1
)

// Histogram is a lock-free duration histogram: one bucket array plus a
// running sum, so Observe is two atomic adds and no allocation. Snapshot
// reads the buckets with plain atomic loads and takes the count from
// their sum, so callers may record concurrently and a snapshot's count
// always agrees with its buckets. Nil receivers no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sumNS   atomic.Uint64
}

// bucketIndex maps a nanosecond duration onto its log bucket.
func bucketIndex(ns uint64) int {
	if ns == 0 {
		ns = 1
	}
	o := bits.Len64(ns) - 1 // floor(log2 ns)
	if o >= histOctaves {
		return histBuckets - 1 // overflow
	}
	var sub uint64
	if o >= histSubBits {
		sub = (ns - 1<<o) >> (o - histSubBits)
	} else {
		sub = (ns - 1<<o) << (histSubBits - o)
	}
	return o*histSubCount + int(sub)
}

// bucketUpperNS is bucket i's exclusive upper bound in nanoseconds
// (+Inf for the overflow bucket).
func bucketUpperNS(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	o, s := i/histSubCount, i%histSubCount
	return float64(uint64(1)<<o) * (1 + float64(s+1)/histSubCount)
}

// bucketLowerNS is bucket i's inclusive lower bound in nanoseconds.
func bucketLowerNS(i int) float64 {
	if i >= histBuckets-1 {
		return float64(uint64(1) << histOctaves)
	}
	o, s := i/histSubCount, i%histSubCount
	return float64(uint64(1)<<o) * (1 + float64(s)/histSubCount)
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sumNS.Add(ns)
}

// Since records the time elapsed since start (Observe(time.Since(start))).
func (h *Histogram) Since(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start))
	}
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count   uint64
	SumNS   uint64
	Buckets [histBuckets]uint64
}

// Snapshot reads the histogram; Count is the sum of the buckets read.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.SumNS = h.sumNS.Load()
	for b := range h.buckets {
		c := h.buckets[b].Load()
		s.Buckets[b] = c
		s.Count += c
	}
	return s
}

// Quantile returns the q-quantile (q in [0, 1]) as a duration, linearly
// interpolated within the log bucket holding the target rank. Zero when the
// snapshot is empty. Accuracy is bounded by the bucket width: at 8
// sub-buckets per octave the estimate is within ~12.5% of the exact sample
// quantile. One snapshot answers p50/p95/p99 consistently.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := bucketLowerNS(i), bucketUpperNS(i)
			if math.IsInf(hi, 1) {
				return time.Duration(lo)
			}
			frac := (target - cum) / float64(c)
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum = next
	}
	return time.Duration(bucketLowerNS(histBuckets - 1))
}

// Mean returns the mean recorded duration (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(float64(s.SumNS) / float64(s.Count))
}
