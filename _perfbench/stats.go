package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the tail rule chooses from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as the tail.
const minBeyond = 10

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it (nearest-rank definition), with its value.
// With too few samples for any rung (fewer than 2*minBeyond) it returns
// the maximum, reported as percentile 100.
func tail(samples []float64) (pct, value float64) {
	s := sortedCopy(samples)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	for _, p := range tailLadder {
		k := rank(p, n)
		if n-k >= minBeyond {
			return p, s[k-1]
		}
	}
	return 100, s[n-1]
}

// percentile is the nearest-rank percentile p of samples.
func percentile(samples []float64, p float64) float64 {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return 0
	}
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small epsilon keeps exact products such as 0.95*200 from rounding up.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median computes it.
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (the default "exclusive"
// method), so spreads computed here match the ones the steadiness rule
// is stated in.
func quartiles(samples []float64) (q1, q3 float64) {
	s := sortedCopy(samples)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(samples []float64) float64 {
	med := median(samples)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(samples)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// backlogSlack is how many requests the backlog may rise between the
// first and last quarter of a rung before it counts as growing: two per
// connection absorbs the jitter of a stable queue.
const backlogSlack = 4

// backlogGrowing reports whether a rung's backlog, sampled at each due
// time (requests due but not yet completed), trends upward: the mean
// over the last quarter of the samples exceeds the mean over the first
// quarter by more than backlogSlack. A stable queue hovers around
// rate×latency with no trend; a rung above capacity accumulates work
// for as long as it runs.
func backlogGrowing(samples []int) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	return meanInts(samples[len(samples)-q:])-meanInts(samples[:q]) > backlogSlack
}

func meanInts(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
