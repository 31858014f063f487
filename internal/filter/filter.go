// Package filter implements the per-link latency filters evaluated by the
// paper (Sections III-IV): the non-linear Moving Percentile (MP) filter
// that the paper recommends, plus the baselines it compares against —
// exponentially weighted moving average (EWMA), a fixed discard threshold,
// and the identity (no filter).
//
// A Filter consumes one raw latency observation at a time and emits the
// value Vivaldi should treat as the link's current latency. Filters may
// withhold output while warming up (the paper's Section VI fix for the
// first-observation-is-an-outlier pathology), signalled by ok == false.
package filter

import (
	"fmt"
	"sort"
)

// Filter smooths a single link's stream of raw latency observations.
// Implementations are not safe for concurrent use; callers own one filter
// per link.
type Filter interface {
	// Observe feeds one raw latency sample (milliseconds) and returns the
	// filtered estimate. ok is false while the filter is warming up and
	// has no estimate to offer; the Vivaldi update is skipped then.
	Observe(sample float64) (estimate float64, ok bool)
	// Reset clears all state, returning the filter to warm-up.
	Reset()
}

// Factory builds a fresh filter. Each link gets its own instance from the
// factory, so factories must not share mutable state between the filters
// they produce. MPFactory, EWMAFactory and ThresholdFactory validate
// their parameters once and return a factory that cannot fail.
type Factory func() Filter

// --- Moving Percentile ------------------------------------------------

// Paper defaults for the MP filter: "taking the 25th percentile
// (minimum) of the previous four observations" predicted subsequent
// samples best (Figure 4).
const (
	// DefaultHistory is the window size h = 4.
	DefaultHistory = 4
	// DefaultPercentile is p = 25.
	DefaultPercentile = 25.0
	// DefaultUpdateAfter withholds output until the second sample,
	// the robustness fix suggested in Section VI.
	DefaultUpdateAfter = 2
)

// MPConfig parameterizes a Moving Percentile filter.
type MPConfig struct {
	// History is the number of most recent observations retained (h).
	History int
	// Percentile is the percentile of the window reported as the
	// estimate (p), in [0, 100].
	Percentile float64
	// UpdateAfter is the minimum number of observations before the
	// filter produces output. The paper's original implementation used 1
	// (always output) and traced its worst coordinate disruptions to
	// first-sample outliers; 2 removes that pathology at the cost of one
	// extra round trip.
	UpdateAfter int
}

// DefaultMPConfig returns the paper's recommended parameters.
func DefaultMPConfig() MPConfig {
	return MPConfig{History: DefaultHistory, Percentile: DefaultPercentile, UpdateAfter: DefaultUpdateAfter}
}

// Validate checks the configuration.
func (c MPConfig) Validate() error {
	if c.History < 1 {
		return fmt.Errorf("filter: history %d, want >= 1", c.History)
	}
	if !(c.Percentile >= 0 && c.Percentile <= 100) {
		return fmt.Errorf("filter: percentile %v out of [0, 100]", c.Percentile)
	}
	if c.UpdateAfter < 1 {
		return fmt.Errorf("filter: update-after %d, want >= 1", c.UpdateAfter)
	}
	return nil
}

// MP is the Moving Percentile filter: a ring of the last h observations
// whose p-th percentile is the estimate. It is a non-linear low-pass
// filter; with p low (the paper uses 25) it discards the heavy upper tail
// of wide-area latency streams while tracking genuine shifts within h
// observations.
type MP struct {
	cfg    MPConfig
	ring   []float64 // the last n observations, overwritten oldest first
	sorted []float64 // scratch: the history in ascending order
	next   int       // ring slot the next observation overwrites
	n      int       // observations held, up to h
	seen   int       // total observations, for warm-up
}

// NewMP builds an MP filter; the configuration must be valid.
func NewMP(cfg MPConfig) (*MP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newMP(cfg), nil
}

// newMP builds an MP filter from a configuration already validated.
func newMP(cfg MPConfig) *MP {
	h := cfg.History
	buf := make([]float64, 2*h) // ring and sorted scratch share one array
	return &MP{cfg: cfg, ring: buf[:h:h], sorted: buf[h:]}
}

// MPFactory validates cfg once and returns a factory of MP filters
// with it.
func MPFactory(cfg MPConfig) (Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func() Filter { return newMP(cfg) }, nil
}

// Observe implements Filter.
//
//nc:hotpath
func (f *MP) Observe(sample float64) (float64, bool) {
	f.ring[f.next] = sample
	if f.next++; f.next == len(f.ring) {
		f.next = 0
	}
	if f.n < len(f.ring) {
		f.n++
	}
	f.seen++
	if f.seen < f.cfg.UpdateAfter {
		return 0, false
	}
	// The percentile needs the history's values, not their order, so
	// they are sorted straight from the ring. The paper's window is
	// h=4: insertion sort beats the general sort for these tiny windows
	// and keeps the per-sample path branch-cheap.
	sorted := f.sorted[:f.n]
	if f.n <= 16 {
		for i, v := range f.ring[:f.n] {
			j := i - 1
			for j >= 0 && sorted[j] > v {
				sorted[j+1] = sorted[j]
				j--
			}
			sorted[j+1] = v
		}
	} else {
		copy(sorted, f.ring[:f.n])
		sort.Float64s(sorted)
	}
	return percentileSorted(sorted, f.cfg.Percentile), true
}

// Reset implements Filter.
func (f *MP) Reset() {
	f.next, f.n, f.seen = 0, 0, 0
}

// Len reports the current history occupancy (for tests and diagnostics).
func (f *MP) Len() int { return f.n }

// percentileSorted mirrors stats.PercentileSorted without the error path;
// the window is guaranteed non-empty here and p pre-validated. Duplicated
// locally to keep the hot path allocation- and dependency-free.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) || frac == 0 {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// --- EWMA ---------------------------------------------------------------

// EWMA is the exponentially weighted moving average baseline
// (Section IV-B): v' = alpha*s + (1-alpha)*v. The paper shows it performs
// worse than no filter at all on heavy-tailed input — outliers are not a
// trend to be averaged in, they must be discarded.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA builds an EWMA filter with the given weight for new samples,
// 0 < alpha <= 1.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("filter: ewma alpha %v out of (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// EWMAFactory validates alpha once and returns a factory of EWMA
// filters with it.
func EWMAFactory(alpha float64) (Factory, error) {
	if _, err := NewEWMA(alpha); err != nil {
		return nil, err
	}
	return func() Filter { return &EWMA{alpha: alpha} }, nil
}

// Observe implements Filter.
func (f *EWMA) Observe(sample float64) (float64, bool) {
	if !f.primed {
		f.value = sample
		f.primed = true
	} else {
		f.value = f.alpha*sample + (1-f.alpha)*f.value
	}
	return f.value, true
}

// Reset implements Filter.
func (f *EWMA) Reset() {
	f.value = 0
	f.primed = false
}

// --- Threshold ------------------------------------------------------------

// Threshold drops every observation above a fixed cutoff and passes the
// rest through unchanged (Section IV-B). Stateless and simple, but a
// cutoff that suits the aggregate distribution does nothing for a link
// whose common case is 50 ms and whose outliers are 400 ms.
type Threshold struct {
	cutoff float64
}

// NewThreshold builds a threshold filter with the given cutoff in
// milliseconds.
func NewThreshold(cutoff float64) (*Threshold, error) {
	if cutoff <= 0 {
		return nil, fmt.Errorf("filter: threshold cutoff %v, want > 0", cutoff)
	}
	return &Threshold{cutoff: cutoff}, nil
}

// ThresholdFactory validates cutoff once and returns a factory of
// threshold filters with it.
func ThresholdFactory(cutoff float64) (Factory, error) {
	if _, err := NewThreshold(cutoff); err != nil {
		return nil, err
	}
	return func() Filter { return &Threshold{cutoff: cutoff} }, nil
}

// Observe implements Filter. Samples above the cutoff produce no output.
func (f *Threshold) Observe(sample float64) (float64, bool) {
	if sample > f.cutoff {
		return 0, false
	}
	return sample, true
}

// Reset implements Filter.
func (f *Threshold) Reset() {}

// --- None -------------------------------------------------------------------

// None is the identity filter: raw observations flow straight into
// Vivaldi. This is the paper's "No Filter" configuration.
type None struct{}

// NewNone returns the identity filter.
func NewNone() *None { return &None{} }

// Observe implements Filter.
func (*None) Observe(sample float64) (float64, bool) { return sample, true }

// Reset implements Filter.
func (*None) Reset() {}

// Interface conformance checks.
var (
	_ Filter = (*MP)(nil)
	_ Filter = (*EWMA)(nil)
	_ Filter = (*Threshold)(nil)
	_ Filter = (*None)(nil)
)
