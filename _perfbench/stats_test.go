package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{1000, 99, 990}, // rank 990, 10 samples beyond
		{999, 95, 950},  // p99 would leave 9 beyond
		{200, 95, 190},  // exactly 10 beyond p95
		{199, 90, 180},  // p95 would leave 9 beyond
		{40, 75, 30},    // 10 beyond p75
		{20, 50, 10},    // 10 beyond the median
		{19, 100, 19},   // too few for any rung: the maximum
		{2, 100, 2},     // likewise
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: tail = p%g %g, want p%g %g", tc.n, pct, v, tc.pct, tc.want)
		}
	}
	if pct, v := tail(nil); pct != 0 || v != 0 {
		t.Errorf("tail(nil) = p%g %g, want zeros", pct, v)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles(seq(5))
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g, %g, want 1.5, 4.5", q1, q3)
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", m)
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", s)
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]int, 400)
	for i := range flat {
		flat[i] = 1 + i%3 // a stable queue jitters between 1 and 3
	}
	if backlogGrowing(flat) {
		t.Error("a jittering but stable backlog reads as growing")
	}
	ramp := make([]int, 400)
	for i := range ramp {
		ramp[i] = 1 + i/20 // one request more every 20 due times
	}
	if !backlogGrowing(ramp) {
		t.Error("a backlog rising by 20 requests over the rung reads as stable")
	}
	if backlogGrowing([]int{1, 50, 100}) {
		t.Error("three samples are too few to call a trend")
	}
}
