package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts observations into explicit, contiguous buckets. The
// paper's figures use irregular bucket layouts (fine up to 1 s, coarse
// beyond), so buckets are defined by their boundaries rather than a fixed
// width.
type Histogram struct {
	// bounds[i] is the inclusive lower edge of bucket i. The final bucket
	// is open ended.
	bounds []float64
	counts []uint64
	total  uint64
}

// NewHistogram builds a histogram over the given ascending lower bucket
// bounds. A value v lands in the last bucket whose bound is <= v; values
// below bounds[0] are dropped (the latency figures never see negatives).
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, ErrEmpty
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not ascending at %d", i)
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds))}, nil
}

// Fig2Bounds is the bucket layout of the paper's Figure 2: 100 ms buckets
// up to 1 s, 1000 ms buckets up to 3 s, then everything >= 3 s.
func Fig2Bounds() []float64 {
	bounds := make([]float64, 0, 13)
	for ms := 0.0; ms < 1000; ms += 100 {
		bounds = append(bounds, ms)
	}
	bounds = append(bounds, 1000, 2000, 3000)
	return bounds
}

// Fig3Bounds is the single-link bucket layout of Figure 3: 200 ms buckets
// from 0 through 2200 ms.
func Fig3Bounds() []float64 {
	bounds := make([]float64, 0, 11)
	for ms := 0.0; ms <= 2000; ms += 200 {
		bounds = append(bounds, ms)
	}
	return bounds
}

// Observe adds one value to the histogram.
func (h *Histogram) Observe(v float64) {
	idx := h.bucketIndex(v)
	if idx < 0 {
		return
	}
	h.counts[idx]++
	h.total++
}

func (h *Histogram) bucketIndex(v float64) int {
	if v < h.bounds[0] || math.IsNaN(v) {
		return -1
	}
	// Linear scan is fine for ~a dozen buckets; binary search for more.
	if len(h.bounds) > 32 {
		lo, hi := 0, len(h.bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if h.bounds[mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo - 1
	}
	idx := 0
	for i, b := range h.bounds {
		if v >= b {
			idx = i
		} else {
			break
		}
	}
	return idx
}

// Total returns the number of observed values.
func (h *Histogram) Total() uint64 { return h.total }

// FractionAtOrAbove returns the fraction of observations >= x, where x
// must be one of the bucket bounds. Used to check calibration targets such
// as "0.4% of the measurements are greater than one second".
func (h *Histogram) FractionAtOrAbove(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	var above uint64
	for i, b := range h.bounds {
		if b >= x {
			above += h.counts[i]
		}
	}
	return float64(above) / float64(h.total)
}

// BucketLabel renders the human-readable range label of bucket i, in the
// style of the paper's axis labels ("100-199", ">=3000").
func (h *Histogram) BucketLabel(i int) string {
	if i < 0 || i >= len(h.bounds) {
		return ""
	}
	if i == len(h.bounds)-1 {
		return fmt.Sprintf(">=%d", int(h.bounds[i]))
	}
	return fmt.Sprintf("%d-%d", int(h.bounds[i]), int(h.bounds[i+1])-1)
}

// Render prints the histogram as a log-scale ASCII table mirroring the
// paper's log-frequency plots.
func (h *Histogram) Render() string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-12s %12s  %s\n", "bucket(ms)", "count", "log-scale"))
	for i, c := range h.counts {
		bar := ""
		if c > 0 {
			bar = strings.Repeat("#", 1+int(math.Log10(float64(c))))
		}
		sb.WriteString(fmt.Sprintf("%-12s %12d  %s\n", h.BucketLabel(i), c, bar))
	}
	return sb.String()
}
