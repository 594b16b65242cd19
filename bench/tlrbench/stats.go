package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is one or two outliers, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of the samples at or below
// it.  xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// beyond counts the samples strictly above the nearest-rank
// q-quantile's position among n.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tailPercentile is percentile with the minBeyond rule: ok is false when
// fewer than minBeyond samples lie beyond the q-quantile.
func tailPercentile(xs []float64, q float64) (v float64, ok bool) {
	return percentile(xs, q), beyond(len(xs), q) >= minBeyond
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so spreads computed here match those
// computed from the emitted JSON with the standard library.  With one
// sample all three are that sample.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle of xs (the mean of the two middle samples for an
// even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relIQR is the distance between the quartiles as a share of the
// median: the run-to-run spread the benchmark's bounds are judged by.
func relIQR(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
