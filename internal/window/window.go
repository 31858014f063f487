// Package window implements the two-window change-detection scheme the
// paper borrows from Kifer, Ben-David and Gehrke (VLDB 2004) and applies
// to streams of network coordinates (Section V-A).
//
// A single stream S = {s0, s1, ...} is split into two sets of size k:
// Ws, the frozen *start* window holding the first k elements since the
// last change point, and Wc, the sliding *current* window holding the most
// recent k elements. Once both are full, each new element slides Wc and
// the two windows are compared with a statistical distance; when they are
// declared different, a change point is recorded and both windows restart
// from empty.
//
// Pair computes the statistic each window policy compares Ws and Wc
// with (Energy for ENERGY, Relative for RELATIVE, RankSum for the
// rank-sum baseline); the thresholds, and so the decision, belong to
// internal/heuristic.
//
// The Szekely-Rizzo energy statistic is maintained incrementally. Its
// three distance sums are built at the first Energy call after a fill —
// from the k(k-1)/2 distinct distances when that call comes before any
// slide, because Ws and Wc then hold the same points — and each later
// slide updates them in O(k) instead of recomputing the O(k^2)
// definition, which matters because ENERGY runs on every coordinate
// observation of every node. A pair whose Energy is never read keeps no
// sums at all.
//
// Beside the sums the pair keeps the k×k table of cross distances
// ||Ws[a] - Wc[r]||, one row per Wc slot, so a slide takes no distance
// twice: the departing point's row is what it leaves sumCross, and while
// Wc still holds fill points (which are Ws's points in the same slots)
// the table also holds their distances to the departing and the arriving
// point. A slide then takes k plus head square roots instead of 4k-2,
// and 3k-2 once every slot has slid; on a stream that restarts every
// 44 observations at k = 32, as the paper-scale simulation does, that is
// 946 square roots per restart instead of 2 008. The table is k² floats,
// more than everything else a pair holds at the paper's k = 32, so the
// first Energy call allocates it, not NewPair: a pair only RELATIVE or
// the rank sum reads never pays for it.
package window

import (
	"fmt"
	"math"

	"netcoord/internal/stats"
	"netcoord/internal/vec"
)

// Pair manages the start window Ws and current window Wc over a stream of
// multi-dimensional points, with incremental energy bookkeeping.
//
// All per-element storage is allocated once — the window slots at
// construction, the cross-distance table at the first Energy call:
// Append copies each point into preallocated slots, so the steady-state
// append-and-slide path performs zero heap allocations — it runs once
// per coordinate observation of every simulated node.
//
// Pair is not safe for concurrent use.
type Pair struct {
	k   int
	dim int

	start    []vec.Vector // Ws slots; the first startLen hold the frozen window
	startLen int
	current  []vec.Vector // Wc slots: ring, oldest at head
	head     int          // ring index of oldest element of current
	curLen   int

	// Incremental sums for the energy statistic, built by the first
	// Energy call after a fill and maintained by every slide after it.
	//
	// sumCross  = sum over a in Ws, b in Wc of ||a-b||
	// sumWithinS = full double sum over Ws (both orders, diagonal zero)
	// sumWithinC = full double sum over Wc
	sumCross   float64
	sumWithinS float64
	sumWithinC float64

	// crossDist is the k×k table of cross distances behind sumCross:
	// crossDist[r*k+a] = ||start[a] - current[r]||, valid while sumsValid
	// holds. initSums allocates it once and fills it; each slide rewrites
	// row head for the arriving point.
	crossDist []float64
	// fresh counts the Wc slots from head on that still hold their fill
	// point (current[i] is bitwise start[i]): k after a fill-time build,
	// 0 after a cold one, one fewer per slide; while it is positive,
	// head+fresh == k.
	fresh int

	// startCentroid caches C(Ws) in a preallocated buffer; the paper
	// notes this cacheability as one of RELATIVE's virtues.
	startCentroid vec.Vector
	// curCentroid is the reusable output buffer for CurrentCentroid.
	curCentroid vec.Vector

	// The flags share one word, which keeps a Pair, fresh included, in
	// the 208-byte malloc size class on 64-bit platforms.
	slid             bool // Wc has slid since the fill: it no longer equals Ws
	sumsValid        bool // the sums and crossDist are built
	startCentroidSet bool // startCentroid holds C(Ws)
}

// NewPair builds a window pair with windows of size k over points of the
// given dimension.
func NewPair(k, dim int) (*Pair, error) {
	if k < 1 {
		return nil, fmt.Errorf("window: size %d, want >= 1", k)
	}
	if dim < 1 {
		return nil, fmt.Errorf("window: dimension %d, want >= 1", dim)
	}
	// One backing array: 2k slots, then the two centroids.
	buf := make([]float64, (2*k+2)*dim)
	vecs := make([]vec.Vector, 2*k+2)
	for i := range vecs {
		vecs[i] = buf[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return &Pair{
		k:             k,
		dim:           dim,
		start:         vecs[:k:k],
		current:       vecs[k : 2*k : 2*k],
		startCentroid: vecs[2*k],
		curCentroid:   vecs[2*k+1],
	}, nil
}

// K returns the configured window size.
func (p *Pair) K() int { return p.k }

// Full reports whether both windows hold k elements, i.e. whether the
// change test is currently defined.
func (p *Pair) Full() bool { return p.startLen == p.k && p.curLen == p.k }

// Append adds the next stream element. The element is copied into
// preallocated storage, so the caller may reuse its buffer and the
// steady-state path allocates nothing. Returns an error on dimension
// mismatch.
//
//nc:hotpath
func (p *Pair) Append(v vec.Vector) error {
	if v.Dim() != p.dim {
		//nc:allow(hotpath) dimension-mismatch return: cold by definition
		return fmt.Errorf("window: append %d-dim point to %d-dim pair: %w", v.Dim(), p.dim, vec.ErrDimensionMismatch)
	}

	// Phase 1: both windows fill together ("As each element si arrives,
	// it is added to Ws and Wc until they are both of size k").
	if p.startLen < p.k {
		copy(p.start[p.startLen], v)
		copy(p.current[p.curLen], v)
		p.startLen++
		p.curLen++
		p.head = 0
		return nil
	}

	// Phase 2: Ws is frozen, Wc slides. The sums are updated while the
	// departing element still occupies its slot, then the slot is
	// overwritten in place.
	old := p.current[p.head]
	p.slideSums(old, v)
	copy(old, v)
	if p.head++; p.head == p.k {
		p.head = 0
	}
	p.slid = true
	return nil
}

// Reset clears both windows; called after a change point is declared
// ("both windows Ws and Wc are cleared and the process begins again").
func (p *Pair) Reset() {
	p.startLen = 0
	p.curLen = 0
	p.head = 0
	p.slid = false
	p.sumsValid = false
	p.fresh = 0
	p.startCentroidSet = false
}

// Start returns the frozen start window in arrival order. The returned
// slice aliases internal storage and must not be modified.
func (p *Pair) Start() []vec.Vector { return p.start[:p.startLen] }

// Current returns the current window in arrival order (oldest first).
// The slice itself is freshly allocated, but its elements alias the
// pair's slot storage: they are overwritten by later Appends and must
// not be modified.
func (p *Pair) Current() []vec.Vector {
	out := make([]vec.Vector, 0, p.curLen)
	for i := 0; i < p.curLen; i++ {
		out = append(out, p.current[(p.head+i)%p.k])
	}
	return out
}

// StartCentroid returns C(Ws), cached after first computation. The
// returned vector aliases an internal buffer and must not be modified;
// it is valid until the next Reset.
func (p *Pair) StartCentroid() (vec.Vector, error) {
	if !p.Full() {
		return nil, fmt.Errorf("window: centroid requested before windows full")
	}
	if !p.startCentroidSet {
		meanInto(p.startCentroid, p.start[:p.startLen], 0, p.k)
		p.startCentroidSet = true
	}
	return p.startCentroid, nil
}

// CurrentCentroid returns C(Wc). The returned vector aliases a reusable
// internal buffer and must not be modified; it is valid until the next
// CurrentCentroid or Relative call.
func (p *Pair) CurrentCentroid() (vec.Vector, error) {
	if !p.Full() {
		//nc:allow(hotpath) not-full return: cold by definition
		return nil, fmt.Errorf("window: centroid requested before windows full")
	}
	meanInto(p.curCentroid, p.current, p.head, p.k)
	return p.curCentroid, nil
}

// meanInto computes the arithmetic mean of the ring window slots into
// dst without allocating, summing in arrival order (oldest first, from
// head) so the result is independent of the ring's physical layout.
func meanInto(dst vec.Vector, slots []vec.Vector, head, k int) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < len(slots); i++ {
		s := slots[(head+i)%k]
		for j := range dst {
			dst[j] += s[j]
		}
	}
	dst.ScaleInPlace(1 / float64(len(slots)))
}

// Energy returns the Szekely-Rizzo energy statistic e(Ws, Wc), maintained
// incrementally. Only defined when both windows are full.
func (p *Pair) Energy() (float64, error) {
	if !p.Full() {
		//nc:allow(hotpath) not-full return: cold by definition
		return 0, fmt.Errorf("window: energy requested before windows full")
	}
	if !p.sumsValid {
		p.initSums()
	}
	n := float64(p.k)
	// e(A,B) = (n1 n2/(n1+n2)) (2 S_AB/(n1 n2) - S_AA/n1^2 - S_BB/n2^2)
	// with n1 = n2 = k.
	return (n * n / (2 * n)) *
		(2/(n*n)*p.sumCross - p.sumWithinS/(n*n) - p.sumWithinC/(n*n)), nil
}

// Relative returns RELATIVE's statistic: the displacement between the
// window centroids, normalized by the distance from C(Ws) to the node's
// nearest known neighbor r,
//
//	||C(Ws) - C(Wc)|| / ||C(Ws) - r||
//
// The normalization makes updates "relative to the node's locale": a
// 5 ms wobble is significant inside a metro cluster and noise across an
// ocean. A neighbor exactly on C(Ws) is a zero locale: the ratio is then
// +Inf if the centroid moved at all and 0 if it did not. Only defined
// when both windows are full.
func (p *Pair) Relative(neighbor vec.Vector) (float64, error) {
	if neighbor.Dim() != p.dim {
		return 0, fmt.Errorf("window: %d-dim neighbor for %d-dim pair: %w", neighbor.Dim(), p.dim, vec.ErrDimensionMismatch)
	}
	cs, err := p.StartCentroid()
	if err != nil {
		return 0, err
	}
	cc, err := p.CurrentCentroid()
	if err != nil {
		return 0, err
	}
	moved, scale := dist(cs, cc), dist(cs, neighbor)
	if scale == 0 {
		if moved > 0 {
			return math.Inf(1), nil
		}
		return 0, nil
	}
	return moved / scale, nil
}

// RankSum returns the Wilcoxon rank-sum z score of Ws against Wc, both
// projected onto one dimension: each point's distance from C(Ws). It
// adapts the kind of "well-known statistical test" Kifer, Ben-David and
// Gehrke built their detector on; the paper notes such tests "are all
// for one-dimensional data" and introduces ENERGY and RELATIVE instead.
//
// Its blind spot is a direction-only change: a cloud that moves to a new
// place equidistant from C(Ws) barely shifts the projected distribution,
// so z stays small while the energy statistic grows. Only defined when
// both windows are full; unlike the other two statistics it allocates.
func (p *Pair) RankSum() (float64, error) {
	center, err := p.StartCentroid()
	if err != nil {
		return 0, err
	}
	proj := make([]float64, 2*p.k)
	for i, pt := range p.start {
		proj[i] = dist(pt, center)
	}
	for i := 0; i < p.k; i++ {
		proj[p.k+i] = dist(p.current[(p.head+i)%p.k], center)
	}
	return stats.RankSum(proj[:p.k], proj[p.k:])
}

// initSums builds the three distance sums and the cross-distance
// table; Energy is its only caller.
//
// Before the first slide Wc still holds Ws's k points slot for slot, so
// the k(k-1)/2 distances d(i,j), i < j, define all three sums and the
// whole table, and adding them in the general loops' order gives the
// general loops' bits: d is bitwise symmetric ((a-b)^2 is (b-a)^2), so
// row i of the row-major sumCross reads d(i,j), j < i, back from the
// table, skips the diagonal (+0 added to a non-negative sum of finite
// points, and stored as the table's zero) and computes the rest, writing
// each into both triangles; sumWithinC is sumWithinS's addition
// sequence. Every slot then holds its fill point: fresh = k. After a
// slide the windows differ and the general loops run, over the slot
// arrays — the sums are pair aggregates, so ring order does not matter —
// storing each of the k^2 cross distances they take; fresh = 0.
func (p *Pair) initSums() {
	if p.crossDist == nil {
		//nc:allow(hotpath) once per pair, at its first Energy call; Reset keeps the table
		p.crossDist = make([]float64, p.k*p.k)
	}
	start, cur, k, table := p.start, p.current, p.k, p.crossDist
	var cross, withinS, withinC float64
	if !p.slid {
		for i := 0; i < k; i++ {
			row := table[i*k : i*k+k]
			for _, d := range row[:i] {
				cross += d
			}
			row[i] = 0
			for j := i + 1; j < k; j++ {
				d := dist(start[i], start[j])
				row[j] = d
				table[j*k+i] = d
				cross += d
				withinS += 2 * d
			}
		}
		withinC = withinS
		p.fresh = k
	} else {
		for a, s := range start {
			for r, b := range cur {
				d := dist(s, b)
				table[r*k+a] = d
				cross += d
			}
		}
		for i := range start {
			for j := i + 1; j < k; j++ {
				withinS += 2 * dist(start[i], start[j])
				withinC += 2 * dist(cur[i], cur[j])
			}
		}
		p.fresh = 0
	}
	p.sumCross, p.sumWithinS, p.sumWithinC = cross, withinS, withinC
	p.sumsValid = true
}

// slideSums updates the distance sums for Wc dropping old (slot head)
// and gaining nw, in O(k); a no-op until Energy has built them.
//
// Each slot i gives sumCross d(start[i], nw) and takes back row head of
// crossDist, d(start[i], old), and the new distance replaces the old in
// the row. What Wc's own sum loses and gains is read from the table
// where it is there. While fresh slots remain, old is start[head]; a
// member after head is start[i], so its distance to old is row[i] and
// to nw the cross distance just taken; a member before head arrived by
// a slide, so its distance to old is in its own row, at column head, and
// only its distance to nw is computed. That is k+head square roots on a
// fresh slide. Once every slot has slid (fresh == 0), each member's
// distances to old and to nw are computed: 3k-2 in all. Each accumulator
// adds what the unshared loops added, in slot order, so the bits are
// theirs.
//
//nc:hotpath
func (p *Pair) slideSums(old, nw vec.Vector) {
	if !p.sumsValid {
		return
	}
	k, head := p.k, p.head
	table := p.crossDist
	row := table[head*k : head*k+k : head*k+k]
	cur := p.current
	start := p.start[:len(cur)]
	cross, withinC := p.sumCross, p.sumWithinC
	if p.fresh == 0 {
		for i, m := range cur {
			d := dist(start[i], nw)
			cross += d - row[i]
			row[i] = d
			if i != head {
				withinC -= 2 * dist(m, old)
				withinC += 2 * dist(m, nw)
			}
		}
		p.sumCross, p.sumWithinC = cross, withinC
		return
	}
	for i, m := range cur[:head] {
		d := dist(start[i], nw)
		cross += d - row[i]
		row[i] = d
		withinC -= 2 * table[i*k+head]
		withinC += 2 * dist(m, nw)
	}
	d := dist(start[head], nw)
	cross += d - row[head]
	row[head] = d
	for i := head + 1; i < k; i++ {
		d := dist(start[i], nw)
		cross += d - row[i]
		withinC -= 2 * row[i]
		withinC += 2 * d
		row[i] = d
	}
	p.sumCross, p.sumWithinC = cross, withinC
	p.fresh--
}

// dist is vec.Vector.Dist's arithmetic in vec.Vector.Dist's order without
// its error return: Append has already enforced equal dimensions.
func dist(a, b vec.Vector) float64 {
	b = b[:len(a)]
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
