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
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. The input need not be
// sorted; it is not modified.
func Percentile(values []float64, p float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) {
		return 0, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// PercentileSorted is Percentile for input already in ascending order. It
// performs no allocation, making it suitable for hot loops that maintain
// sorted windows (the MP filter).
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) {
		return 0, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
	}
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
