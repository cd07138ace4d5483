package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample: the smallest value with at least p of the
// sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// 1e-9 keeps p·n products that are whole numbers in exact arithmetic
	// (0.95 × 200) from ceiling one rank up.
	i := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method: the k-th cut
// sits at position k·(n+1)/4 of the sorted sample, interpolated linearly and
// clamped to the sample), so a spread computed here equals the one the
// driver computes from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// lowerQuartile is the first quartile of a sample of times, and never less
// than its smallest value: on two values the exclusive method extrapolates
// past the smaller, and one value has no quartiles at all.
func lowerQuartile(xs []float64) float64 {
	lo := slices.Min(xs)
	if q1, _ := quartiles(xs); q1 > lo {
		return q1
	}
	return lo
}

// spreadShare is the interquartile distance as a share of the median — the
// run-to-run noise measure the benchmark's bounds are sized against.
func spreadShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// setupFloor is the smallest set-up time reported: below 50 ms a set-up
// reading is timer and scheduler noise no user sees.
const setupFloor = 0.05

func flooredSetup(s float64) float64 { return math.Max(s, setupFloor) }
