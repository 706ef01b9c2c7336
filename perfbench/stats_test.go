package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		enough bool
	}{
		{100, 90, 90, true},   // ranks 91..100 lie beyond
		{99, 90, 90, false},   // only 9 beyond
		{100, 99, 99, false},  // 1 beyond
		{1000, 99, 990, true}, // 10 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.enough {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.enough)
		}
	}
}

func TestTailPercentilePicksHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{10000, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{19, 0, false},
	} {
		p, _, ok := tailPercentile(seq(tc.n))
		if p != tc.wantP || ok != tc.ok {
			t.Errorf("tailPercentile(n=%d) = p%g, %v; want p%g, %v", tc.n, p, ok, tc.wantP, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 100, 95, 105}
	for _, tc := range []struct {
		name        string
		change      []float64
		lowerBetter bool
		want        string
	}{
		{"same", parent, true, verdictUnchanged},
		{"slower beyond bound", scaled(1.2), true, verdictRegressed},
		{"faster", scaled(0.8), true, verdictImproved},
		{"throughput up", scaled(1.2), false, verdictImproved},
		{"throughput down", scaled(0.8), false, verdictRegressed},
		{"wide spread", noisy, true, verdictUnresolved},
	} {
		if got := judge(parent, tc.change, tc.lowerBetter, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
