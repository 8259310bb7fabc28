package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRankAndSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n         int
		q         float64
		want      float64
		supported bool
	}{
		{100, 0.50, 50, true},
		{100, 0.90, 90, true},   // exactly ten samples beyond p90
		{99, 0.90, 90, false},   // nine beyond
		{1000, 0.99, 990, true}, // p99 needs a thousand
		{999, 0.99, 990, false},
		{1, 0.90, 1, false},
		{10, 1.0, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.supported)
		}
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of nothing = %v, %v", v, ok)
	}
}

// The expected values are statistics.quantiles(values, n=4) from Python
// 3.11, the function the driver computes spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10}, // two values extrapolate, as Python does
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 4, 6.5},
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}
