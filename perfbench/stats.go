package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of values by linear
// interpolation between the two closest ranks. It sorts a copy.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 0.5 percentile: the middle value, or the mean of the two
// middle values.
func median(values []float64) float64 {
	return percentile(values, 0.5)
}

// tailPercentile returns the highest of the usual tail percentiles that
// still leaves at least minBeyond samples ranked above it, with its value.
// ok is false when even p50 lacks the samples.
func tailPercentile(values []float64, minBeyond int) (p, v float64, ok bool) {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		n := len(values)
		if n > 0 && n-1-int(math.Floor(p*float64(n-1))) >= minBeyond {
			return p, percentile(values, p), true
		}
	}
	return 0, 0, false
}

// quartiles returns the three cut points dividing values into four groups
// with the "exclusive" method of Python's statistics.quantiles(values, n=4)
// — the convention the benchmark's spread rule is stated in. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	if len(values) < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(values)
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// relativeSpread is the interquartile range as a share of the median.
func relativeSpread(values []float64) float64 {
	q1, _, q3, ok := quartiles(values)
	m := median(values)
	if !ok || m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
