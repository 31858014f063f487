// Package index provides an incremental spatial index over network
// coordinates: the data structure behind the Registry's k-nearest-neighbor
// and radius queries.
//
// The index is a kd-tree over the Euclidean component of the coordinate,
// with the non-Euclidean height term folded into the metric: the distance
// between a query q and a point p is ||q - p|| + h_q + h_p, exactly
// coord.Coordinate.DistanceTo. Because a point's height only ever adds to
// its distance, every subtree tracks the minimum height among its points,
// and the search lower-bounds a subtree by (axis distance to the splitting
// plane) + h_q + minHeight — pruning stays correct under the height model.
//
// Layout: a tree is one arena, not a graph of heap objects. Slot i is a
// pointer-free node (nodes[i]: split value, heights, int32 links), its
// point vector (vecs[i*dim : (i+1)*dim]) and, in parallel slices, the id
// a search hands out with each candidate, and the caller's whole record
// — id, coordinate, error, timestamp, sequence — beside the cell that
// memoizes the point's JSON, which only a result that is kept reads
// (Point). The arena is the store: the Registry keeps no copy of its
// entries beside it, and the tree's id map is its one id map. Build and
// Rebuild lay the arena out in pre-order — a node's left child is the
// next slot, a subtree is one contiguous run of slots — so the
// near-first descent walks forward through memory and a small subtree
// is scanned as a run instead of being descended.
//
// Mutation strategy: inserts descend to a leaf and append a slot; removals
// tombstone the slot in place. Both are O(depth). An insert whose descent
// ends on a tombstoned leaf takes that slot over instead of hanging a new
// one beneath it, so an id that flaps between two coordinates reuses the
// same two slots forever rather than growing a chain of tombstones.
// A point equal to a node's split value may live on either side of its
// plane — the search's plane bound holds for both, and Build puts equal
// values on both — so an insert that ties descends into the child with
// fewer live points, an absent child counting as the fewest. A crowd
// that registers one coordinate, such as fresh Vivaldi nodes all at the
// origin, then grows a balanced subtree instead of a chain that Put's
// depth trigger would answer with a full rebuild every few dozen inserts.
// Tombstones and unbalanced insertion degrade the tree over time, so the index rebuilds
// itself — a balanced median build over the live points, compacting the
// tombstones out of the arena — whenever tombstones exceed half the live
// count or the inserts since the last rebuild exceed the size at that
// rebuild. The doubling rule bounds the amortized rebuild cost per insert
// to O(log n) and keeps depth within a constant factor of optimal.
//
// A Tree is not safe for concurrent use; the Registry wraps one under
// its lock. Brute is the O(n)-scan reference implementation
// with identical semantics, used as the correctness oracle in tests and as
// the baseline in benchmarks.
package index

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"netcoord/internal/bheap"
	"netcoord/internal/coord"
	"netcoord/internal/wire"
)

// Neighbor is one query result: a stored point and its distance (the
// estimated RTT in milliseconds) from the query coordinate. It is 32
// bytes, what the search's heap moves at every level; the stored
// coordinate stays in the arena, reached through Slot.
type Neighbor struct {
	// ID is the stored point's identifier.
	ID string
	// Distance is coord.DistanceTo between the query and the point.
	Distance float64
	// Slot is the point's arena slot, for Tree.Point. It is valid only
	// until the tree next changes — an insert, a removal or a rebuild
	// may hand the slot to another point or drop the arena — so a
	// caller resolves it under the same hold of its lock as the search.
	// Brute's neighbors carry -1.
	Slot int32
}

// Bound is the monotonically tightening distance bound one kNN search
// carries: it starts at the caller's limit (a radius, or +Inf), each
// search tightens it to its own kth-best distance as its heap fills, and
// a caller that searches several trees back to back with one heap and
// one Bound has every later search prune against what the earlier ones
// proved. A Bound belongs to one search at a time; it is not safe for
// concurrent use.
type Bound struct {
	v float64
}

// Reset initializes the bound to v (use math.Inf(1) for "no bound").
func (b *Bound) Reset(v float64) { b.v = v }

// Load returns the current bound.
//
//nc:hotpath
func (b *Bound) Load() float64 { return b.v }

// Tighten lowers the bound to v if v is smaller.
//
//nc:hotpath
func (b *Bound) Tighten(v float64) {
	if v < b.v {
		b.v = v
	}
}

// Stats describes the internal shape of a Tree, for observability.
type Stats struct {
	// Live is the number of queryable points.
	Live int
	// Tombstones is the number of removed-but-unreclaimed nodes.
	Tombstones int
	// Rebuilds counts balanced rebuilds performed.
	Rebuilds uint64
	// Height is an upper bound on the current tree height (0 for an
	// empty tree), tracked incrementally so Stats stays O(1): it is
	// exact after a rebuild and grows with the deepest insertion since.
	Height int
}

// none is the arena index of an absent child or parent.
const none = -1

// maxDim is the largest dimension a node's axis field can name.
const maxDim = math.MaxUint16

// runMax is the longest run of slots a search scans linearly instead of
// descending: below it, computing every distance in a contiguous run
// costs less than the pruning tests and mispredicted branches it skips.
const runMax = 16

// node is one kd-tree node: 48 bytes, no pointers, so the arena is one
// allocation the garbage collector never scans. A node whose deleted
// flag is set is a tombstone: it still splits space but no longer
// matches queries.
type node struct {
	// split is the point's component on axis, height its own height:
	// with them a visit that rejects the point reads nothing but the
	// node and the point's vector.
	split  float64
	height float64
	// minHeight lower-bounds the height of every point in this subtree.
	// It is maintained exactly on insert and left stale (conservatively
	// low) on removal, so it is always a valid pruning bound.
	minHeight float64

	left, right, parent int32

	// size counts live points in this subtree; a subtree with size 0 is
	// skipped entirely during search.
	size int32
	// run, when positive, says the subtree is exactly the slots
	// [i, i+run) — true of every subtree a build lays out, until an
	// insert hangs a slot from the end of the arena beneath it (run 0).
	run int32

	axis    uint16
	deleted bool
}

// point is a slot's record as the caller stored it, beside the cell
// that memoizes the JSON rendering of the slot's id and coordinate, so
// that resolving a result reads both from one place: the cell first,
// then the id and coordinate, then the fields only Record reads.
// Readers fill the cell without the caller's lock, so the arena is
// never copied by append: Put grows it by hand.
type point struct {
	json coord.JSONCell
	rec  Entry
}

// Tree is the incremental kd-tree. Not safe for concurrent use.
type Tree struct {
	dim int
	// nodes[0] is the root whenever the arena is non-empty.
	nodes []node
	// The per-slot payload, parallel to nodes: the flat vectors the
	// search reads, the id it hands out, and the point Point resolves a
	// kept result's slot to. points keeps the caller's record, with its
	// immutable coordinate, so that a result never refers to vecs, which
	// a rebuild rewrites.
	vecs   []float64
	ids    []string
	points []point
	byID   map[string]int32

	dead          int
	liveAtRebuild int
	inserts       int
	rebuilds      uint64
	// heightHint upper-bounds the tree height: reset to the balanced
	// height on rebuild, raised by insertions that land deeper.
	heightHint int
}

// New builds an empty Tree for coordinates of the given dimension.
func New(dim int) (*Tree, error) {
	if dim <= 0 || dim > maxDim {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return nil, fmt.Errorf("index: dimension %d, want in [1, %d]", dim, maxDim)
	}
	//nc:allow(hotpath) tree construction: once per registry, not per upsert
	return &Tree{dim: dim, byID: make(map[string]int32)}, nil
}

// Entry is one point and the record stored with it: the tree files it
// by ID and Coord and keeps the rest — Error, UpdatedAt, Seq — for
// Record. In Build's input, duplicate IDs resolve last-wins, matching a
// sequence of Puts.
type Entry = wire.Entry

// Build constructs a balanced Tree over the given entries in one pass:
// validate, dedupe, and median-build, O(n log n) total. It produces the
// same tree a Rebuild would leave behind, without paying for n
// incremental inserts and the O(n log^2 n) amortized rebuild cascade
// they trigger — the Registry uses it to warm an empty index from a
// snapshot. All entries are validated before any state is built, so an
// error returns no partially constructed tree.
func Build(dim int, entries []Entry) (*Tree, error) {
	t, err := New(dim)
	if err != nil {
		return nil, err
	}
	for i := range entries {
		if err := entries[i].Coord.Validate(dim); err != nil {
			//nc:allow(hotpath) validation-failure return: cold by definition
			return nil, fmt.Errorf("index build %q: %w", entries[i].ID, err)
		}
	}
	t.byID = make(map[string]int32, len(entries)) //nc:allow(hotpath) bulk build: one id map per build
	t.layout(entries)
	if len(t.byID) < len(entries) {
		// Some id repeats, which the id map just showed for free and a
		// snapshot never does: keep the last of each, as the same
		// sequence of Puts would, and lay the survivors out instead.
		last := make(map[string]int, len(t.byID)) //nc:allow(hotpath) bulk build with duplicate ids: cold, once per build
		for i := range entries {
			last[entries[i].ID] = i
		}
		kept := make([]Entry, 0, len(last)) //nc:allow(hotpath) bulk build with duplicate ids: cold, once per build
		for i := range entries {
			if last[entries[i].ID] == i {
				kept = append(kept, entries[i])
			}
		}
		clear(t.byID)
		t.layout(kept)
	}
	return t, nil
}

// Len reports the number of live points.
func (t *Tree) Len() int { return len(t.byID) }

// Stats snapshots the tree's shape in O(1).
func (t *Tree) Stats() Stats {
	return Stats{
		Live:       len(t.byID),
		Tombstones: t.dead,
		Rebuilds:   t.rebuilds,
		Height:     t.heightHint,
	}
}

// balancedHeight is the height of a balanced tree over n nodes.
func balancedHeight(n int) int {
	return bits.Len(uint(n))
}

// Insert adds the point, replacing any existing point with the same id.
// It is Put with an otherwise empty record.
func (t *Tree) Insert(id string, c coord.Coordinate) error {
	return t.Put(Entry{ID: id, Coord: c})
}

// Put adds the record's point, replacing any existing point with the
// same id — a new slot, even at an equal coordinate; Refresh is the
// in-place rewrite.
func (t *Tree) Put(e Entry) error {
	id, c := e.ID, e.Coord
	if err := c.Validate(t.dim); err != nil {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("index insert %q: %w", id, err)
	}
	if old, ok := t.byID[id]; ok {
		t.tombstone(old)
	}
	// Descend to the free child link the point belongs under and hang
	// the slot about to be appended from it — unless the descent ends on
	// a tombstoned leaf, which the point takes over instead.
	i := int32(len(t.nodes))
	n := node{
		split: c.Vec[0], height: c.Height, minHeight: c.Height,
		left: none, right: none, parent: none, size: 1, run: 1,
	}
	depth := 1
	if i > 0 {
		cur := int32(0)
		for {
			depth++
			p := &t.nodes[cur]
			if p.deleted && p.left == none && p.right == none {
				t.revive(cur, e)
				return nil
			}
			link := &p.right
			if v := c.Vec[p.axis]; v < p.split || v == p.split && t.liveSize(p.left) < t.liveSize(p.right) {
				link = &p.left
			}
			if *link == none {
				*link = i
				break
			}
			cur = *link
		}
		n.parent = cur
		n.axis = uint16((int(t.nodes[cur].axis) + 1) % t.dim)
		n.split = c.Vec[n.axis]
		for a := cur; a != none; a = t.nodes[a].parent {
			p := &t.nodes[a]
			p.size++
			p.run = 0
			if c.Height < p.minHeight {
				p.minHeight = c.Height
			}
		}
	}
	t.nodes = append(t.nodes, n)
	t.vecs = append(t.vecs, c.Vec...)
	t.ids = append(t.ids, id)
	t.appendPoint(e)
	t.byID[id] = i
	t.inserts++
	if depth > t.heightHint {
		t.heightHint = depth
	}
	if depth > maxDepth(len(t.byID)) {
		// Scapegoat-style trigger: an insertion that lands far below the
		// balanced depth means the tree has drifted into a chain (e.g.
		// sorted-order insertion); rebalance immediately.
		t.Rebuild()
		return nil
	}
	t.maybeRebuild()
	return nil
}

// appendPoint appends a slot's point. Growing by append would copy the
// memo cells with plain reads while readers may be filling them, so a
// full arena moves to a new one by hand: the records are copied, the
// cells start empty, and a reader still holding an old cell fills a
// cell no one reads again.
func (t *Tree) appendPoint(e Entry) {
	n := len(t.points)
	if n == cap(t.points) {
		grown := make([]point, n, n+n/4+16) //nc:allow(hotpath) arena growth: amortized, by a quarter as append grows the other slices
		for i := range t.points {
			grown[i].rec = t.points[i].rec
		}
		t.points = grown
	}
	t.points = t.points[:n+1]
	t.points[n].rec = e
}

// liveSize is the number of live points under slot i, and -1 for an
// absent child, so that a tie prefers to hang a new slot.
func (t *Tree) liveSize(i int32) int32 {
	if i == none {
		return -1
	}
	return t.nodes[i].size
}

// revive hands the tombstoned leaf in slot i to the record e, whose
// descent ended there: the descent kept the point on an admissible side
// of every ancestor's plane — below it, above it, or either on a tie —
// and a leaf's own split constrains nothing beneath it, so rewriting the
// slot in place keeps every search invariant. The slot stays where it
// is — ancestors' run is untouched — and its old coordinate is
// replaced, never written through, so a coordinate Point handed out
// earlier keeps what it had; the slot's memo cell is left to notice the
// change itself. The tree neither grows nor deepens, which is why a
// revival does not count toward the doubling rule.
func (t *Tree) revive(i int32, e Entry) {
	id, c := e.ID, e.Coord
	n := &t.nodes[i]
	n.split = c.Vec[n.axis]
	n.height, n.minHeight = c.Height, c.Height
	n.deleted = false
	copy(t.vecs[int(i)*t.dim:], c.Vec)
	t.ids[i] = id
	t.points[i].rec = e
	t.byID[id] = i
	t.dead--
	n.size = 1
	for a := n.parent; a != none; a = t.nodes[a].parent {
		p := &t.nodes[a]
		p.size++
		if c.Height < p.minHeight {
			p.minHeight = c.Height
		}
	}
}

// maxDepth is the deepest insertion tolerated for a tree of n live
// points. Randomly ordered insertions stay well under it (expected max
// depth ~3·log2 n), so it only fires on genuinely degenerate shapes.
func maxDepth(n int) int {
	return 4*bits.Len(uint(n)) + 8
}

// Remove tombstones the point with the given id.
func (t *Tree) Remove(id string) bool {
	i, ok := t.byID[id]
	if !ok {
		return false
	}
	delete(t.byID, id)
	t.tombstone(i)
	t.maybeRebuild()
	return true
}

// tombstone marks slot i deleted and fixes live counts on the path to
// the root. The caller removes or replaces the id-map entry.
func (t *Tree) tombstone(i int32) {
	t.nodes[i].deleted = true
	t.dead++
	for a := i; a != none; a = t.nodes[a].parent {
		t.nodes[a].size--
	}
}

// maybeRebuild rebalances when tombstones dominate — which includes the
// last live point leaving — or inserts since the last rebuild exceed
// the tree size at that rebuild (the doubling rule).
func (t *Tree) maybeRebuild() {
	if t.dead > len(t.byID)/2 || t.inserts > t.liveAtRebuild+minRebuildSlack {
		t.Rebuild()
	}
}

// minRebuildSlack keeps tiny trees from rebuilding on every insert.
const minRebuildSlack = 32

// Rebuild replaces the tree with a balanced median build over the live
// points, in a new arena without the tombstones. O(n log n) expected.
// The live points are taken in arena order, so the result does not
// depend on map iteration order.
func (t *Tree) Rebuild() {
	live := make([]Entry, 0, len(t.byID)) //nc:allow(hotpath) amortized rebalance: O(log n) rebuilds over n inserts
	for i := range t.nodes {
		if !t.nodes[i].deleted {
			live = append(live, t.points[i].rec)
		}
	}
	t.layout(live)
	t.rebuilds++
}

// layout replaces the arena with a balanced tree over entries laid out
// in pre-order, and enters every id's slot in the id map (a rebuild's
// map already holds exactly these ids). Pre-order fixes every subtree's
// slots before it is built — n points rooted at slot s fill [s, s+n) —
// so the arena is sized up front, place writes slots rather than
// appending, and halves that share no slot can be built on different
// goroutines. Input order is fine as the starting arrangement: the
// median build partitions by the (axis value, id) total order, whose
// medians are unique, so the tree is a pure function of the point set,
// the same arena byte for byte at any GOMAXPROCS. Entries that share an
// id leave the map shorter than the arena; Build looks for that.
func (t *Tree) layout(entries []Entry) {
	n := len(entries)
	t.nodes = make([]node, n)         //nc:allow(hotpath) arena allocation: once per build or rebuild
	t.vecs = make([]float64, n*t.dim) //nc:allow(hotpath) arena allocation: once per build or rebuild
	t.ids = make([]string, n)         //nc:allow(hotpath) arena allocation: once per build or rebuild
	t.points = make([]point, n)       //nc:allow(hotpath) arena allocation: once per build or rebuild
	order := make([]keyed, n)         //nc:allow(hotpath) arena allocation: once per build or rebuild
	for i := range order {
		order[i].at = int32(i)
	}
	t.place(entries, order, 0, none, 0, runtime.GOMAXPROCS(0))
	for i, id := range t.ids {
		t.byID[id] = int32(i)
	}
	t.dead = 0
	t.liveAtRebuild = n
	t.inserts = 0
	t.heightHint = balancedHeight(n)
}

// keyed is one entry of a median build's working set: where the entry
// is, and its component on the axis being split, gathered next to the
// index so that selection compares without chasing the entry.
type keyed struct {
	v  float64
	at int32
}

// forkMin is the smallest subtree place splits across two goroutines:
// below it the hand-off costs more than the half it moves.
const forkMin = 1 << 12

// place writes the balanced subtree over the entries in order, split on
// axis, into slots [slot, slot+len(order)) and returns slot: the median
// first, then its left half, then its right half. The subtree may keep
// procs goroutines busy: given two or more, and forkMin points or more,
// it builds its left half on a second one.
func (t *Tree) place(entries []Entry, order []keyed, axis int, parent, slot int32, procs int) int32 {
	if len(order) == 0 {
		return none
	}
	for i := range order {
		order[i].v = entries[order[i].at].Coord.Vec[axis]
	}
	mid := len(order) / 2
	selectMedian(entries, order, mid)
	e := &entries[order[mid].at]
	t.nodes[slot] = node{
		split: order[mid].v, height: e.Coord.Height,
		parent: parent, size: int32(len(order)), run: int32(len(order)),
		axis: uint16(axis),
	}
	copy(t.vecs[int(slot)*t.dim:], e.Coord.Vec)
	t.ids[slot] = e.ID
	t.points[slot].rec = *e
	next := (axis + 1) % t.dim
	var left, right int32
	if procs > 1 && len(order) >= forkMin {
		done := t.placeAsync(entries, order[:mid], next, slot, slot+1, procs/2)
		right = t.place(entries, order[mid+1:], next, slot, slot+1+int32(mid), procs-procs/2)
		left = <-done
	} else {
		left = t.place(entries, order[:mid], next, slot, slot+1, procs)
		right = t.place(entries, order[mid+1:], next, slot, slot+1+int32(mid), procs)
	}
	n := &t.nodes[slot]
	n.left, n.right = left, right
	n.minHeight = e.Coord.Height
	if left != none {
		n.minHeight = min(n.minHeight, t.nodes[left].minHeight)
	}
	if right != none {
		n.minHeight = min(n.minHeight, t.nodes[right].minHeight)
	}
	return slot
}

// placeAsync runs place on a goroutine of its own and delivers its
// result on the returned channel. A separate function, because written
// inline in place the closure's captures would escape on every call.
func (t *Tree) placeAsync(entries []Entry, order []keyed, axis int, parent, slot int32, procs int) <-chan int32 {
	done := make(chan int32, 1) //nc:allow(hotpath) build fork: at most GOMAXPROCS-1 per build or rebuild, none below forkMin points
	//nc:allow(hotpath) build fork: the goroutine builds a disjoint slot range and place waits for it before returning
	go func() { done <- t.place(entries, order, axis, parent, slot, procs) }()
	return done
}

// selectMedian partially sorts order so that order[mid] is the entry
// that a full sort by (axis value, id) would place there, with smaller
// ones before it and larger after. Expected O(n) quickselect.
func selectMedian(entries []Entry, order []keyed, mid int) {
	lo, hi := 0, len(order)-1
	for lo < hi {
		// Median-of-three pivot guards against sorted inputs.
		m := lo + (hi-lo)/2
		if keyedLess(entries, order[m], order[lo]) {
			order[m], order[lo] = order[lo], order[m]
		}
		if keyedLess(entries, order[hi], order[lo]) {
			order[hi], order[lo] = order[lo], order[hi]
		}
		if keyedLess(entries, order[hi], order[m]) {
			order[hi], order[m] = order[m], order[hi]
		}
		pivot := order[m]
		i, j := lo, hi
		for i <= j {
			for keyedLess(entries, order[i], pivot) {
				i++
			}
			for keyedLess(entries, pivot, order[j]) {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		if mid <= j {
			hi = j
		} else if mid >= i {
			lo = i
		} else {
			return
		}
	}
}

// keyedLess orders entries by (axis value, id): a total order, so builds
// are deterministic even with duplicate coordinates.
func keyedLess(entries []Entry, a, b keyed) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return entries[a.at].ID < entries[b.at].ID
}

// distance is coord.Coordinate.DistanceTo between the query (q, qh) and
// the point in slot i, computed from the flat arrays with the same
// expression in the same order — the squares summed in axis order, the
// root, then the query's height, then the point's — so it is the same
// float64, bit for bit, that Brute computes.
//
//nc:hotpath
func (t *Tree) distance(q []float64, qh float64, i int32) float64 {
	p := t.vecs[int(i)*t.dim:][:len(q)]
	var sum float64
	for a, qa := range q {
		d := qa - p[a]
		sum += d * d
	}
	return math.Sqrt(sum) + qh + t.nodes[i].height
}

// planeBound lower-bounds the distance from the query to any point
// beyond a splitting plane delta away in a subtree of the given minimum
// height. It rounds exactly where distance rounds — square, root, add
// the query's height, add a height — and every one of those steps is
// monotone, so it can never exceed the computed distance of a point
// under it, not even where delta's square underflows to zero.
//
//nc:hotpath
func planeBound(delta, qh, minHeight float64) float64 {
	return math.Sqrt(delta*delta) + qh + minHeight
}

// KNearest returns the k nearest points to from, sorted by
// (distance, id) ascending.
func (t *Tree) KNearest(from coord.Coordinate, k int) ([]Neighbor, error) {
	return t.KNearestBound(from, k, math.Inf(1))
}

// KNearestBound is KNearest restricted to points at distance <= bound.
// A caller that already holds k candidates passes its current kth-best
// distance so the search prunes subtrees that cannot improve on them.
// With k >= Len it is the radius query: every point within bound, the
// same walk under a bound that never tightens because the heap never
// fills.
func (t *Tree) KNearestBound(from coord.Coordinate, k int, bound float64) ([]Neighbor, error) {
	h := bheap.New(k, neighborBefore)
	var b Bound
	b.Reset(bound)
	if err := t.KNearestInto(from, k, h, &b); err != nil {
		return nil, err
	}
	res := h.Items()
	sortNeighbors(res)
	return res, nil
}

// KNearestInto is the allocation-free core of KNearestBound: it offers
// the k nearest points at distance <= b into the caller-owned heap h
// (which the caller must have Reset to capacity k) and leaves the
// results UNSORTED in heap order — callers merging several trees sort
// once at the end. b is both input and output: the search starts from
// the bound it carries, tightens it to its own kth-best distance as the
// heap fills, and prunes against its current value throughout, so
// searches over several trees that share one heap and one Bound prune
// each other. The bound check is <= and the heap breaks distance ties by id,
// so the kept set is exact under the (Distance, ID) total order no
// matter how the bound tightens.
//
//nc:hotpath
func (t *Tree) KNearestInto(from coord.Coordinate, k int, h *bheap.Heap[Neighbor], b *Bound) error {
	if err := from.Validate(t.dim); err != nil {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("index knearest: %w", err)
	}
	if k <= 0 {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("index knearest: k = %d, want > 0", k)
	}
	if math.IsNaN(b.Load()) {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("index knearest: bound is NaN")
	}
	if h.Full() {
		// A heap that arrives full already proves k candidates within
		// its worst distance; from here on the bound alone prunes.
		b.Tighten(h.Worst().Distance)
	}
	if len(t.byID) > 0 {
		s := search{t: t, q: from.Vec, qh: from.Height, b: b, h: h}
		s.visit(0)
	}
	return nil
}

// search is the state of one kNN walk of the tree from the query
// (q, qh) into h under the bound b.
type search struct {
	t  *Tree
	q  []float64
	qh float64

	b *Bound
	h *bheap.Heap[Neighbor]
}

// visit searches the subtree at slot i, which holds at least one live
// point: a short contiguous run is scanned outright; otherwise the near
// side is walked first, then the far side only if the splitting-plane
// lower bound could still beat the bound, which is loaded once per node
// and again after a child's walk may have tightened it.
//
//nc:hotpath
func (s *search) visit(i int32) {
	t := s.t
	n := &t.nodes[i]
	bound := s.b.Load()
	if run := n.run; run > 0 && run <= runMax {
		for j := i; j < i+run; j++ {
			if t.nodes[j].deleted {
				continue
			}
			if d := t.distance(s.q, s.qh, j); d <= bound {
				bound = s.accept(j, d)
			}
		}
		return
	}
	if !n.deleted {
		if d := t.distance(s.q, s.qh, i); d <= bound {
			bound = s.accept(i, d)
		}
	}
	delta := s.q[n.axis] - n.split
	near, far := n.left, n.right
	if delta >= 0 {
		near, far = far, near
	}
	if near != none && t.nodes[near].size > 0 && s.qh+t.nodes[near].minHeight <= bound {
		s.visit(near)
		bound = s.b.Load()
	}
	if far != none && t.nodes[far].size > 0 && planeBound(delta, s.qh, t.nodes[far].minHeight) <= bound {
		s.visit(far)
	}
}

// accept offers the Neighbor in slot i, whose distance d passed the
// bound, to the heap — which breaks a tie at the bound by id — tightens
// the bound once the heap is full, and returns the bound to go on with.
//
//nc:hotpath
func (s *search) accept(i int32, d float64) float64 {
	s.h.Offer(Neighbor{ID: s.t.ids[i], Distance: d, Slot: i})
	if s.h.Full() {
		// k candidates at distance <= Worst now exist, so the true
		// kth-best cannot exceed it.
		s.b.Tighten(s.h.Worst().Distance)
	}
	return s.b.Load()
}

// Point returns the coordinate stored in slot and the cell that
// memoizes the JSON rendering of the slot's id and coordinate. slot is a Neighbor's, from a search since
// which the tree has not changed; the coordinate returned is the
// caller's own and stays valid, and so does the cell, though a later
// change may give its slot to another point.
//
//nc:hotpath
func (t *Tree) Point(slot int32) (coord.Coordinate, *coord.JSONCell) {
	p := &t.points[slot]
	return p.rec.Coord, &p.json
}

// Lookup returns the slot holding id's point, valid until the tree
// next changes, and whether there is one.
//
//nc:hotpath
func (t *Tree) Lookup(id string) (int32, bool) {
	slot, ok := t.byID[id]
	return slot, ok
}

// Record returns the record stored in slot, a live slot from Lookup
// since which the tree has not changed. It is for reading: a record
// changes through Put and Refresh.
//
//nc:hotpath
func (t *Tree) Record(slot int32) *Entry { return &t.points[slot].rec }

// Refresh rewrites the record in slot, a live slot from Lookup since
// which the tree has not changed, with e, which names the same id at
// an Equal coordinate: the slot keeps its id and coordinate — so its
// place in the tree and its memo — and takes the rest of e. The tree
// does not change shape, so slots stay valid.
//
//nc:hotpath
func (t *Tree) Refresh(slot int32, e Entry) {
	p := &t.points[slot].rec
	e.ID, e.Coord = p.ID, p.Coord
	*p = e
}

// All yields the record of every live point, in arena order. The tree
// must not change while it runs.
func (t *Tree) All() iter.Seq[*Entry] {
	return func(yield func(*Entry) bool) {
		for i := range t.nodes {
			if !t.nodes[i].deleted && !yield(&t.points[i].rec) {
				return
			}
		}
	}
}

// sortNeighbors orders results by (distance, id) ascending — the
// deterministic order Tree and Brute both answer in.
// slices.SortFunc rather than sort.Slice: the latter boxes the slice
// into an interface (an allocation the zero-alloc query path cannot
// afford); the former is generic and allocation-free.
func sortNeighbors(ns []Neighbor) {
	//nc:allow(hotpath) generic SortFunc: the slice binds a type parameter, no interface boxing happens at runtime
	slices.SortFunc(ns, CompareNeighbors)
}

// SortNeighbors exposes the canonical (Distance, ID) ascending ordering
// for callers that merge per-tree results themselves.
//
//nc:hotpath
func SortNeighbors(ns []Neighbor) { sortNeighbors(ns) }

// CompareNeighbors is the (Distance, ID) total order as a three-way
// comparison, for slices.SortFunc.
//
//nc:hotpath
func CompareNeighbors(a, b Neighbor) int {
	switch {
	case a.Distance < b.Distance:
		return -1
	case a.Distance > b.Distance:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// NeighborBefore reports whether a sorts before b under the canonical
// (Distance, ID) order — the order function for caller-owned k-best
// heaps fed through KNearestInto.
//
//nc:hotpath
func NeighborBefore(a, b Neighbor) bool { return neighborBefore(a, b) }

// neighborBefore is the (Distance, ID) total order every query returns
// results in; it also drives the bounded k-best heap.
//
//nc:hotpath
func neighborBefore(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID < b.ID
}
