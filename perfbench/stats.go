package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read from fewer samples is one or two
// outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (p in (0, 100])
// and whether at least minBeyond samples lie beyond it. xs need not be
// sorted; it is not modified. An empty sample yields (0, false).
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	// The epsilon keeps p = 99.9 of 10000 samples at rank 9990 despite
	// 99.9 having no exact binary form.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// tailLadder is the set of percentiles tailPercentile chooses from,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond samples beyond it, and returns it with its value. ok is
// false when not even the median qualifies.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// median returns the sample median (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so spreads printed
// here match the ones the repeatability check computes. With fewer than
// two samples both quartiles are the sole value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// The same integer arithmetic as CPython, including its
		// extrapolation when j is clamped on tiny samples.
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
