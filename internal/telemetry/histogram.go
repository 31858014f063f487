package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucketing: non-negative integer observations (typically
// nanoseconds) land in one of numBuckets log-spaced buckets. Values
// 0..7 get exact buckets; above that each power-of-two octave is split
// into 4 sub-buckets, bounding relative quantile error at 25% of the
// value — plenty for latency percentiles spanning nanoseconds to
// minutes — while keeping the whole histogram a fixed array of atomic
// counters that Observe touches with three atomic adds and no
// allocation.
const (
	// exactLimit is the first value that leaves the exact-bucket range.
	exactLimit = 8
	// subBuckets is the number of subdivisions per octave above exactLimit.
	subBuckets = 4
	// numBuckets covers octaves up to 2^63: 8 exact + (63-3)*4 + slack.
	numBuckets = exactLimit + (64-3)*subBuckets
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < exactLimit {
		return int(v)
	}
	l := bits.Len64(v) // v in [2^(l-1), 2^l), l >= 4
	sub := (v >> (uint(l) - 3)) & (subBuckets - 1)
	return exactLimit + (l-4)*subBuckets + int(sub)
}

// bucketUpper returns the inclusive upper bound of bucket idx — the
// largest value that maps there. Quantiles are read out at this bound,
// so a reported percentile is never below the true one by more than
// one sub-bucket's width.
func bucketUpper(idx int) uint64 {
	if idx < exactLimit {
		return uint64(idx)
	}
	octave := (idx - exactLimit) / subBuckets // 0-based, value in [2^(octave+3), 2^(octave+4))
	sub := uint64((idx-exactLimit)%subBuckets) + 1
	base := uint64(1) << uint(octave+3)
	return base + sub*(base/subBuckets) - 1
}

// Histogram is a streaming log-bucketed histogram safe for concurrent
// allocation-free observation. Create through Registry.Histogram.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
	// scale converts observed integer units to exposition units at
	// readout (1e-9 for nanoseconds exported as seconds).
	scale float64
}

// newHistogram builds a histogram whose exposition multiplies values
// by scale.
func newHistogram(scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	return &Histogram{scale: scale}
}

// NewHistogram builds a standalone histogram not attached to any
// registry — for components that own their measurements and surface
// Summary() through a stats struct; a serving layer bridges it into a
// Registry with SummaryFunc (scaling happens there).
func NewHistogram() *Histogram { return newHistogram(1) }

// Observe records one value. Negative values are clamped to zero —
// propagation-lag observations can go negative under clock skew
// between leader and follower hosts, and a skewed clock should read as
// "immeasurably fast", not corrupt the distribution.
//
//nc:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.count.Add(1)
	h.sum.Add(u)
	h.buckets[bucketIndex(u)].Add(1)
	for {
		cur := h.max.Load()
		if u <= cur || h.max.CompareAndSwap(cur, u) {
			return
		}
	}
}

// Summary is a point-in-time quantile readout of a histogram, in the
// histogram's raw (pre-scale) units. The zero value means "no
// observations yet".
type Summary struct {
	// Count and Sum cover every observation since creation.
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// P50/P90/P99 are upper-bound quantile estimates (within one
	// sub-bucket, ≤25% relative error). Max is exact.
	P50 uint64 `json:"p50"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
}

// Summary computes quantiles from the current bucket counts. It is a
// racy-but-consistent-enough snapshot: concurrent Observes may land
// between the count load and the bucket scan, skewing a quantile by at
// most the in-flight observations.
func (h *Histogram) Summary() Summary {
	s := Summary{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		return s
	}
	targets := [3]uint64{
		quantileRank(s.Count, 50),
		quantileRank(s.Count, 90),
		quantileRank(s.Count, 99),
	}
	out := [3]uint64{}
	var cum uint64
	ti := 0
	for i := 0; i < numBuckets && ti < len(targets); i++ {
		cum += h.buckets[i].Load()
		for ti < len(targets) && cum >= targets[ti] {
			out[ti] = bucketUpper(i)
			ti++
		}
	}
	for ; ti < len(targets); ti++ {
		// Rank beyond the scanned mass (racing Observes): report max.
		out[ti] = s.Max
	}
	s.P50, s.P90, s.P99 = out[0], out[1], out[2]
	// Bucket upper bounds can exceed the true max for the top bucket;
	// the exact max is a tighter cap.
	for _, p := range []*uint64{&s.P50, &s.P90, &s.P99} {
		if *p > s.Max {
			*p = s.Max
		}
	}
	return s
}

// quantileRank returns the 1-based rank of the q-th percentile among n
// ordered observations (nearest-rank definition: ceil(q*n/100)).
func quantileRank(n, q uint64) uint64 {
	r := (n*q + 99) / 100
	if r == 0 {
		r = 1
	}
	return r
}
