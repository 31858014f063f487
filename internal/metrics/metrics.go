// Package metrics implements the paper's two evaluation metrics
// (Section II-A) and their derived views:
//
//   - Accuracy: per-node relative error — for node i's observation of
//     node j, |est - l| / l where est is the coordinate distance and l
//     the raw observed latency. The paper reports per-node medians and
//     95th percentiles, and CDFs of both across nodes.
//   - Stability: the rate of coordinate change, s = sum(dx)/t in ms/sec.
//     The headline "instability" distributions are over seconds: for
//     each second, the aggregate coordinate displacement across all
//     nodes. Per-node movement CDFs use each node's per-observation
//     displacements.
//   - Application updates per second: the fraction of nodes whose
//     application-level coordinate changed in a given second (Figure 9).
//
// A Collector records one coordinate stream (system- or application-
// level); runs that compare both keep two collectors side by side.
// Readers choose the measurement window — the paper always discards the
// first half of a run to skip start-up effects.
package metrics

import (
	"fmt"
	"math"

	"netcoord/internal/stats"
)

// series is a per-node time-tagged value stream, stored as parallel
// arrays to keep millions of samples compact.
type series struct {
	ticks []uint32
	vals  []float64
}

func (s *series) add(tick uint64, v float64) {
	s.ticks = append(s.ticks, uint32(tick))
	s.vals = append(s.vals, v)
}

// appendTo appends the values with from <= tick <= to to dst.
func (s *series) appendTo(dst []float64, from, to uint64) []float64 {
	for i, tk := range s.ticks {
		t := uint64(tk)
		if t >= from && t <= to {
			dst = append(dst, s.vals[i])
		}
	}
	return dst
}

// Collector accumulates metrics for one coordinate stream.
type Collector struct {
	nodes   int
	errs    []series
	moves   []series
	moveSum []float64 // aggregate displacement per tick
	updates []int     // count of app updates per tick
	maxTick uint64
}

// NewCollector sizes a collector for the given node count.
func NewCollector(nodes int) (*Collector, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("metrics: %d nodes, want >= 1", nodes)
	}
	return &Collector{
		nodes: nodes,
		errs:  make([]series, nodes),
		moves: make([]series, nodes),
	}, nil
}

// Nodes returns the node count.
func (c *Collector) Nodes() int { return c.nodes }

// Reserve pre-sizes internal storage for a run expected to span ticks
// seconds with up to perNode observations per node, so that steady-state
// Record calls perform no allocation. Runs that exceed the reservation
// still work — storage grows as before — and Reserve never shrinks.
func (c *Collector) Reserve(ticks uint64, perNode int) {
	if n := int(ticks) + 1; n > cap(c.moveSum) {
		c.moveSum = append(make([]float64, 0, n), c.moveSum...)
		c.updates = append(make([]int, 0, n), c.updates...)
	}
	if perNode <= 0 {
		return
	}
	for i := range c.errs {
		reserveSeries(&c.errs[i], perNode)
		reserveSeries(&c.moves[i], perNode)
	}
}

func reserveSeries(s *series, n int) {
	if n <= cap(s.vals) {
		return
	}
	s.ticks = append(make([]uint32, 0, n), s.ticks...)
	s.vals = append(make([]float64, 0, n), s.vals...)
}

func (c *Collector) growTo(tick uint64) {
	if tick > c.maxTick {
		c.maxTick = tick
	}
	for uint64(len(c.moveSum)) <= tick {
		c.moveSum = append(c.moveSum, 0)
		c.updates = append(c.updates, 0)
	}
}

// RecordError records one relative-error observation for a node.
// Non-finite values are ignored (a lost ping has no error).
func (c *Collector) RecordError(node int, tick uint64, relErr float64) error {
	if node < 0 || node >= c.nodes {
		//nc:allow(hotpath) range-check return: cold by definition
		return fmt.Errorf("metrics: node %d out of range", node)
	}
	if math.IsNaN(relErr) || math.IsInf(relErr, 0) {
		return nil
	}
	c.growTo(tick)
	c.errs[node].add(tick, relErr)
	return nil
}

// RecordMovement records a coordinate displacement for a node at a tick.
// changed marks an application-level update event (always true for
// system-level streams whenever displacement > 0).
func (c *Collector) RecordMovement(node int, tick uint64, displacement float64, changed bool) error {
	if node < 0 || node >= c.nodes {
		//nc:allow(hotpath) range-check return: cold by definition
		return fmt.Errorf("metrics: node %d out of range", node)
	}
	if math.IsNaN(displacement) || math.IsInf(displacement, 0) || displacement < 0 {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("metrics: displacement %v invalid", displacement)
	}
	c.growTo(tick)
	c.moves[node].add(tick, displacement)
	c.moveSum[tick] += displacement
	if changed {
		c.updates[tick]++
	}
	return nil
}

// PerNodeErrorQuantiles returns, for each percentile qs[i] (0-100),
// the qs[i]-th percentile of the relative errors of each node with
// data in [from, to]: result i belongs to qs[i], and its length is the
// number of nodes with data. Each q is selected from the node's window
// in place, with no sort.
func (c *Collector) PerNodeErrorQuantiles(from, to uint64, qs ...float64) ([][]float64, error) {
	return perNodeQuantiles(c.errs, from, to, qs...)
}

// PerNodeMovementQuantile is PerNodeErrorQuantiles for the one
// percentile q over displacement samples (Figure 5's third graph uses
// q=95).
func (c *Collector) PerNodeMovementQuantile(q float64, from, to uint64) ([]float64, error) {
	return single(perNodeQuantiles(c.moves, from, to, q))
}

// single unwraps a one-percentile perNodeQuantiles result.
func single(out [][]float64, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func perNodeQuantiles(ss []series, from, to uint64, qs ...float64) ([][]float64, error) {
	out := make([][]float64, len(qs))
	for j := range out {
		out[j] = make([]float64, 0, len(ss))
	}
	var buf []float64 // one node's window, reused across nodes
	for i := range ss {
		buf = ss[i].appendTo(buf[:0], from, to)
		if len(buf) == 0 {
			continue
		}
		for j, q := range qs {
			v, err := stats.PercentileInPlace(buf, q)
			if err != nil {
				return nil, fmt.Errorf("per-node quantile: %w", err)
			}
			out[j] = append(out[j], v)
		}
	}
	return out, nil
}

// AllErrors pools every relative-error sample in [from, to].
func (c *Collector) AllErrors(from, to uint64) []float64 {
	var out []float64
	for i := range c.errs {
		out = c.errs[i].appendTo(out, from, to)
	}
	return out
}

// InstabilitySeries returns the aggregate displacement per second for
// every tick in [from, to] — including zeros for quiet seconds, which is
// what makes the application-level CDFs in Figures 11 and 13 sit far to
// the left.
func (c *Collector) InstabilitySeries(from, to uint64) []float64 {
	if len(c.moveSum) == 0 {
		return nil
	}
	if to > c.maxTick {
		to = c.maxTick
	}
	if from > to {
		return nil
	}
	out := make([]float64, 0, to-from+1)
	for t := from; t <= to; t++ {
		out = append(out, c.moveSum[t])
	}
	return out
}

// UpdateFractionSeries returns, per tick in [from, to], the fraction of
// nodes whose coordinate changed that tick.
func (c *Collector) UpdateFractionSeries(from, to uint64) []float64 {
	if len(c.updates) == 0 {
		return nil
	}
	if to > c.maxTick {
		to = c.maxTick
	}
	if from > to {
		return nil
	}
	out := make([]float64, 0, to-from+1)
	for t := from; t <= to; t++ {
		out = append(out, float64(c.updates[t])/float64(c.nodes))
	}
	return out
}

// Summary condenses a measurement window into the numbers the paper's
// tables report.
type Summary struct {
	// MedianRelErr is the median over nodes of per-node median relative
	// error (Table I's "Median Relative Error").
	MedianRelErr float64
	// P95RelErrMedian is the median over nodes of per-node 95th
	// percentile relative error (Figure 13's headline metric).
	P95RelErrMedian float64
	// MedianInstability is the median of the per-second aggregate
	// displacement distribution (Table I's "Instability").
	MedianInstability float64
	// MeanInstability is the mean of the same distribution (Figure 14).
	MeanInstability float64
	// MeanUpdateFraction is the mean per-second fraction of nodes whose
	// coordinate changed (Figure 9's third panel).
	MeanUpdateFraction float64
}

// Summarize computes the Summary over [from, to].
func (c *Collector) Summarize(from, to uint64) (Summary, error) {
	qs, err := c.PerNodeErrorQuantiles(from, to, 50, 95)
	if err != nil {
		return Summary{}, err
	}
	medians, p95s := qs[0], qs[1]
	var s Summary
	if len(medians) > 0 {
		if s.MedianRelErr, err = stats.Median(medians); err != nil {
			return Summary{}, err
		}
		if s.P95RelErrMedian, err = stats.Median(p95s); err != nil {
			return Summary{}, err
		}
	}
	inst := c.InstabilitySeries(from, to)
	if len(inst) > 0 {
		if s.MedianInstability, err = stats.Median(inst); err != nil {
			return Summary{}, err
		}
		if s.MeanInstability, err = stats.Mean(inst); err != nil {
			return Summary{}, err
		}
	}
	upd := c.UpdateFractionSeries(from, to)
	if len(upd) > 0 {
		if s.MeanUpdateFraction, err = stats.Mean(upd); err != nil {
			return Summary{}, err
		}
	}
	return s, nil
}

// IntervalStat is one time-bucketed point for Figure 14's convergence
// timelines.
type IntervalStat struct {
	// StartTick is the bucket's inclusive start.
	StartTick uint64
	// MedianRelErr and P95RelErr summarize all error samples in the
	// bucket.
	MedianRelErr float64
	P95RelErr    float64
	// MeanInstability is the mean per-second aggregate displacement.
	MeanInstability float64
	// UpdateFraction is the mean per-second fraction of nodes updated.
	UpdateFraction float64
	// Samples is the number of error observations in the bucket.
	Samples int
}

// Intervals buckets the full run into windows of width ticks
// (Figure 14 uses 600 s).
func (c *Collector) Intervals(width uint64) ([]IntervalStat, error) {
	if width < 1 {
		return nil, fmt.Errorf("metrics: interval width %d, want >= 1", width)
	}
	var out []IntervalStat
	for start := uint64(0); start <= c.maxTick; start += width {
		end := start + width - 1
		st := IntervalStat{StartTick: start}
		errs := c.AllErrors(start, end)
		st.Samples = len(errs)
		if len(errs) > 0 {
			var err error // AllErrors' slice is ours to reorder
			if st.MedianRelErr, err = stats.PercentileInPlace(errs, 50); err != nil {
				return nil, err
			}
			if st.P95RelErr, err = stats.PercentileInPlace(errs, 95); err != nil {
				return nil, err
			}
		}
		inst := c.InstabilitySeries(start, end)
		if len(inst) > 0 {
			var err error
			if st.MeanInstability, err = stats.Mean(inst); err != nil {
				return nil, err
			}
		}
		upd := c.UpdateFractionSeries(start, end)
		if len(upd) > 0 {
			var err error
			if st.UpdateFraction, err = stats.Mean(upd); err != nil {
				return nil, err
			}
		}
		out = append(out, st)
	}
	return out, nil
}
