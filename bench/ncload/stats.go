package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted; with fewer than 100/(100-p) samples that is the maximum.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the interpolated middle of xs, which it leaves unsorted.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// with the interpolation Python's statistics.quantiles(xs, n=4) uses, so
// spreads computed here match the ones the benchmark contract is judged
// by. One or two samples have no spread: all three are their mean.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 3 {
		m := (s[0] + s[n-1]) / 2
		return m, m, m
	}
	at := func(q int) float64 {
		pos := float64(q) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of xs as a share of their median;
// fewer than three values have none.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if len(xs) < 3 || q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
