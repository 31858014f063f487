// Package stats implements the descriptive and test statistics the
// reproduction needs: percentiles, the paper's histogram bucket layouts,
// empirical CDFs, boxplot five-number summaries, the O(n^2) definition
// of the Szekely-Rizzo energy distance (internal/window maintains the
// ENERGY heuristic's copy incrementally), and the Wilcoxon rank-sum test
// referenced by the change-detection literature the paper builds on.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. The input need not be
// sorted; it is not modified.
func Percentile(values []float64, p float64) (float64, error) {
	return PercentileInPlace(append([]float64(nil), values...), p)
}

// PercentileSorted is Percentile for input already in ascending order. It
// performs no allocation, making it suitable for hot loops that maintain
// sorted windows (the MP filter).
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if err := checkPercentile(len(sorted), p); err != nil {
		return 0, err
	}
	return percentileSorted(sorted, p), nil
}

// PercentileInPlace is Percentile without the copy: it reorders values,
// selecting the one or two order statistics the percentile interpolates
// between instead of sorting them all. It reads the same order
// statistics through the same formula as PercentileSorted on the sorted
// values, so the result is equal bit for bit (save that -0 and 0, which
// compare equal, may trade places, as they may in a sort). It performs
// no allocation.
func PercentileInPlace(values []float64, p float64) (float64, error) {
	if err := checkPercentile(len(values), p); err != nil {
		return 0, err
	}
	lo, hi, frac := ranks(len(values), p)
	selectKth(values, lo, 2*bits.Len(uint(len(values))))
	if lo == hi {
		return values[lo], nil
	}
	// Nothing after values[lo] sorts below it, so the next order
	// statistic is the least of them.
	next := values[hi]
	for _, v := range values[hi+1:] {
		if less(v, next) {
			next = v
		}
	}
	return values[lo]*(1-frac) + next*frac, nil
}

func checkPercentile(n int, p float64) error {
	if n == 0 {
		return ErrEmpty
	}
	if !(p >= 0 && p <= 100) {
		return fmt.Errorf("stats: percentile %v out of [0, 100]", p)
	}
	return nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := ranks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ranks locates the p-th percentile of n sorted values: between the
// values at ranks lo and hi (equal when it falls on one), hi weighted
// frac.
func ranks(n int, p float64) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// less is sort.Float64s's order: NaN below every number.
func less(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectKth reorders x so that x[k] holds what sorting would put there,
// with nothing after it that sorts below it and nothing before it that
// sorts above it: Hoare's selection with a median-of-three pivot, which
// sorts what is left once it has partitioned budget times. The
// 2·log2(len(x)) that PercentileInPlace gives it is more than pivots
// that split the range even roughly in half ever spend, and bounds a
// hostile input's cost by a sort's.
func selectKth(x []float64, k, budget int) {
	lo, hi := 0, len(x)-1
	for ; hi > lo; budget-- {
		if budget == 0 {
			sort.Float64s(x[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if less(x[mid], x[lo]) {
			x[mid], x[lo] = x[lo], x[mid]
		}
		if less(x[hi], x[mid]) {
			x[hi], x[mid] = x[mid], x[hi]
			if less(x[mid], x[lo]) {
				x[mid], x[lo] = x[lo], x[mid]
			}
		}
		pivot := x[mid]
		i, j := lo, hi
		for i <= j {
			for less(x[i], pivot) {
				i++
			}
			for less(pivot, x[j]) {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// x[lo..j] sorts no higher than the pivot, x[i..hi] no lower,
		// and whatever lies between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Median returns the 50th percentile of values.
func Median(values []float64) (float64, error) {
	return Percentile(values, 50)
}

// Mean returns the arithmetic mean of values.
func Mean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values)), nil
}

// Boxplot is the Tukey boxplot summary used by the paper's Figure 4:
// quartiles, whiskers at 1.5 IQR, and the values beyond the whiskers.
type Boxplot struct {
	Median      float64
	Q1          float64
	Q3          float64
	LowWhisker  float64
	HighWhisker float64
	Outliers    []float64
	Max         float64
}

// BoxplotOf computes the boxplot summary of values.
func BoxplotOf(values []float64) (Boxplot, error) {
	if len(values) == 0 {
		return Boxplot{}, ErrEmpty
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	q1 := percentileSorted(sorted, 25)
	q3 := percentileSorted(sorted, 75)
	iqr := q3 - q1
	loFence := q1 - 1.5*iqr
	hiFence := q3 + 1.5*iqr
	b := Boxplot{
		Median: percentileSorted(sorted, 50),
		Q1:     q1,
		Q3:     q3,
		Max:    sorted[len(sorted)-1],
	}
	// Whiskers extend to the most extreme data point within the fences.
	b.LowWhisker, b.HighWhisker = sorted[0], sorted[len(sorted)-1]
	for _, v := range sorted {
		if v >= loFence {
			b.LowWhisker = v
			break
		}
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		if sorted[i] <= hiFence {
			b.HighWhisker = sorted[i]
			break
		}
	}
	for _, v := range sorted {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
		}
	}
	return b, nil
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample. The input is copied.
func NewCDF(values []float64) (*CDF, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns the empirical probability P(X <= x).
func (c *CDF) At(x float64) float64 {
	// First index with value > x.
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the value at the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	return percentileSorted(c.sorted, q*100)
}

// Len returns the sample size behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// Points returns up to n evenly spaced (value, cumulative probability)
// pairs suitable for plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if n <= 0 || c.Len() == 0 {
		return nil
	}
	if n > c.Len() {
		n = c.Len()
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (c.Len() - 1) / max(n-1, 1)
		pts = append(pts, Point{
			X: c.sorted[idx],
			Y: float64(idx+1) / float64(c.Len()),
		})
	}
	return pts
}

// Point is an (x, y) pair on a plotted curve.
type Point struct {
	X float64
	Y float64
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
