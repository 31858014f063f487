package netcoord

// query.go is the Registry's read path: every proximity query — Nearest,
// NearestTo, WithinLimit, Within, and their batched variants — is one
// walk of the registry's one tree under the read lock. Read concurrency
// comes from concurrent callers sharing that lock, not from splitting a
// query up: a single query is never split, and a NearestBatch is split
// only between queries, into contiguous per-core chunks, each query
// still one walk under its own hold of the read lock.
//
// Allocation discipline: the scratch a query needs — its candidate heap
// and radius buffer — is pooled, so the steady-state NearestInto path
// performs zero allocations per query (CI-gated via benchjson
// -require-zero-alloc, statically checked by nclint's hotpath analyzer
// through the //nc:hotpath annotations).

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"netcoord/internal/bheap"
	"netcoord/internal/index"
)

// queryScratch is the pooled per-query scratch: the bounded candidate
// heap of a kNN search with the bound it tightens (pooled because a
// local one would escape to the heap through the search), and the match
// buffer of a radius search. Both keep their backing arrays across
// queries.
type queryScratch struct {
	heap  *bheap.Heap[index.Neighbor]
	bound index.Bound
	buf   []index.Neighbor
}

func newQueryScratch() *queryScratch {
	return &queryScratch{heap: bheap.New(0, index.NeighborBefore)}
}

// Nearest returns the k registered nodes with the smallest estimated RTT
// from the given coordinate, ascending (ties broken by id). Fewer than k
// are returned if the registry holds fewer. The answer comes from the
// spatial index, so it is exact while the work stays O(log n · k)
// instead of a full scan. Callers on a zero-allocation budget use
// NearestInto.
func (r *Registry) Nearest(from Coordinate, k int) ([]Ranked, error) {
	var dst []Ranked
	if k > 0 {
		dst = make([]Ranked, 0, k)
	}
	return r.NearestInto(from, k, dst)
}

// NearestInto is Nearest filling caller-owned storage: results are
// appended to dst[:0] and the filled slice is returned, so a caller
// that reuses dst across queries pays zero steady-state allocations.
//
//nc:hotpath
func (r *Registry) NearestInto(from Coordinate, k int, dst []Ranked) ([]Ranked, error) {
	r.queries.Add(1)
	return r.nearestInto(from, k, "", inf(), dst)
}

// NearestTo is Nearest centered on a registered node, excluding the node
// itself — "which replicas are closest to this client".
func (r *Registry) NearestTo(id string, k int) ([]Ranked, error) {
	e, ok := r.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownID, id)
	}
	r.queries.Add(1)
	var dst []Ranked
	if k > 0 {
		dst = make([]Ranked, 0, k)
	}
	return r.nearestInto(e.Coord, k, id, inf(), dst)
}

// WithinLimit returns the up-to-limit nearest nodes with estimated RTT
// <= radiusMillis, ascending — Within with a result bound, for callers
// (like ncserve) that must not let one query rank an unbounded slice of
// the registry. The radius doubles as the search's pruning bound, so
// the work is proportional to the results returned, not the matches
// that exist.
func (r *Registry) WithinLimit(from Coordinate, radiusMillis float64, limit int) ([]Ranked, error) {
	if radiusMillis < 0 || math.IsNaN(radiusMillis) {
		return nil, fmt.Errorf("netcoord: registry within: radius %v, want >= 0", radiusMillis)
	}
	r.queries.Add(1)
	var dst []Ranked
	if limit > 0 {
		dst = make([]Ranked, 0, limit)
	}
	return r.nearestInto(from, limit, "", radiusMillis, dst)
}

// nearestInto is the kNN core shared by every entry point: validate,
// search the tree into the pooled heap, fill dst. It does not bump the
// query counter — exported wrappers do.
//
//nc:hotpath
func (r *Registry) nearestInto(from Coordinate, k int, exclude string, bound float64, dst []Ranked) ([]Ranked, error) {
	if k <= 0 {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return nil, fmt.Errorf("netcoord: k = %d, want > 0", k)
	}
	if err := from.Validate(r.dim); err != nil {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return nil, fmt.Errorf("netcoord: registry nearest: %w", err)
	}
	if math.IsNaN(bound) {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return nil, fmt.Errorf("netcoord: registry nearest: bound is NaN")
	}
	// Ask for one extra result so dropping the excluded node still
	// leaves k.
	want := k
	if exclude != "" {
		want++
	}
	qs := r.scratch.Get().(*queryScratch)
	qs.heap.Reset(want)
	qs.bound.Reset(bound)
	r.mu.RLock()
	// The inputs were validated above, which is the tree's only failure.
	_ = r.tree.KNearestInto(from, want, qs.heap, &qs.bound)
	r.mu.RUnlock()
	ns := qs.heap.Items()
	index.SortNeighbors(ns)
	dst = dst[:0]
	for _, n := range ns {
		if n.ID == exclude {
			continue
		}
		dst = append(dst, ranked(n))
		if len(dst) == k {
			break
		}
	}
	r.scratch.Put(qs)
	return dst, nil
}

// ranked is a search result in the form the registry hands out.
//
//nc:hotpath
func ranked(n index.Neighbor) Ranked {
	return Ranked{
		Candidate:    Candidate{ID: n.ID, Coord: n.Coord},
		EstimatedRTT: n.Distance,
	}
}

// Within returns every registered node with estimated RTT <= radiusMillis
// from the given coordinate, ascending (ties broken by id) — the
// "replicas inside my latency budget" query. Cost is proportional to the
// number of matches; services exposed to untrusted radii should use
// WithinLimit instead.
func (r *Registry) Within(from Coordinate, radiusMillis float64) ([]Ranked, error) {
	r.queries.Add(1)
	return r.withinRanked(from, radiusMillis)
}

// withinRanked is the radius core: the matches stream into the pooled
// buffer and are sorted once.
func (r *Registry) withinRanked(from Coordinate, radius float64) ([]Ranked, error) {
	if err := from.Validate(r.dim); err != nil {
		return nil, fmt.Errorf("netcoord: registry within: %w", err)
	}
	if radius < 0 || math.IsNaN(radius) {
		return nil, fmt.Errorf("netcoord: registry within: radius %v, want >= 0", radius)
	}
	qs := r.scratch.Get().(*queryScratch)
	r.mu.RLock()
	// The inputs were validated above, which is the tree's only failure.
	ns, _ := r.tree.WithinInto(from, radius, qs.buf[:0])
	r.mu.RUnlock()
	index.SortNeighbors(ns)
	out := make([]Ranked, len(ns))
	for i, n := range ns {
		out[i] = ranked(n)
	}
	qs.buf = ns
	r.scratch.Put(qs)
	return out, nil
}

// NearestQuery is one point query of a NearestBatch.
type NearestQuery struct {
	// From is the query coordinate.
	From Coordinate
	// K bounds the result count; it must be > 0.
	K int
	// Exclude drops this id from the results (the NearestTo shape);
	// empty excludes nothing.
	Exclude string
	// HasRadius restricts results to estimated RTT <= RadiusMillis (the
	// WithinLimit shape). With HasRadius false, RadiusMillis is ignored.
	HasRadius bool
	// RadiusMillis is the radius bound when HasRadius is set.
	RadiusMillis float64
}

// WithinQuery is one radius query of a WithinBatch.
type WithinQuery struct {
	// From is the query coordinate.
	From Coordinate
	// RadiusMillis is the inclusive RTT radius; it must be >= 0.
	RadiusMillis float64
}

// batchForkMin is the size of the chunks a split NearestBatch is
// answered in, and the fewest queries per goroutine it forks: below it
// the hand-off costs more than the queries it moves.
const batchForkMin = 8

// NearestBatch answers many point queries in one call. The whole batch
// is validated first: on error, no query ran and the slice is nil.
// Results per query match the equivalent single call exactly; the read
// lock is taken per query, never across the batch, so a long batch does
// not hold writers off. This is what POST /nearest/batch rides on.
//
// A batch of 2·batchForkMin queries or more is answered on up to
// min(GOMAXPROCS, len/batchForkMin) goroutines, the caller's among them:
// each claims the next contiguous chunk of batchForkMin queries until
// none is left, and fills only those queries' results. A goroutine that
// starts late finds the batch already answered rather than being waited
// for, so a batch never costs more than the loop of single queries plus
// the forks. All are joined before NearestBatch returns. The results
// reference no query's From, so the caller may reuse the query
// coordinates as soon as it returns.
func (r *Registry) NearestBatch(queries []NearestQuery) ([][]Ranked, error) {
	total := 0
	for i := range queries {
		q := &queries[i]
		if q.K <= 0 {
			return nil, fmt.Errorf("netcoord: registry batch query %d: k = %d, want > 0", i, q.K)
		}
		if err := q.From.Validate(r.dim); err != nil {
			return nil, fmt.Errorf("netcoord: registry batch query %d: %w", i, err)
		}
		if q.HasRadius && (q.RadiusMillis < 0 || math.IsNaN(q.RadiusMillis)) {
			return nil, fmt.Errorf("netcoord: registry batch query %d: radius %v, want >= 0", i, q.RadiusMillis)
		}
		total += q.K
	}
	r.queries.Add(uint64(len(queries)))
	out := make([][]Ranked, len(queries))
	// Every query's results are carved out of one backing slice: one
	// allocation per batch instead of one per query. Each carving is
	// capped at its K, so appending to one result cannot reach the next.
	backing := make([]Ranked, total)
	for i := range queries {
		k := queries[i].K
		out[i], backing = backing[:0:k], backing[k:]
	}
	workers := min(len(queries)/batchForkMin, runtime.GOMAXPROCS(0))
	if workers < 2 {
		r.nearestChunk(queries, out)
		return out, nil
	}
	var next atomic.Int64
	answer := func() {
		for {
			lo := int(next.Add(batchForkMin)) - batchForkMin
			if lo >= len(queries) {
				return
			}
			hi := min(lo+batchForkMin, len(queries))
			r.nearestChunk(queries[lo:hi], out[lo:hi])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			answer()
		}()
	}
	answer()
	wg.Wait()
	return out, nil
}

// nearestChunk answers validated queries, each into its carving in out.
func (r *Registry) nearestChunk(queries []NearestQuery, out [][]Ranked) {
	for i := range queries {
		q := &queries[i]
		bound := inf()
		if q.HasRadius {
			bound = q.RadiusMillis
		}
		// The batch was validated, which is nearestInto's only failure.
		out[i], _ = r.nearestInto(q.From, q.K, q.Exclude, bound, out[i])
	}
}

// WithinBatch answers many radius queries in one call. The whole batch
// is validated first: on error, no query ran and the slice is nil.
func (r *Registry) WithinBatch(queries []WithinQuery) ([][]Ranked, error) {
	for i := range queries {
		q := &queries[i]
		if err := q.From.Validate(r.dim); err != nil {
			return nil, fmt.Errorf("netcoord: registry batch query %d: %w", i, err)
		}
		if q.RadiusMillis < 0 || math.IsNaN(q.RadiusMillis) {
			return nil, fmt.Errorf("netcoord: registry batch query %d: radius %v, want >= 0", i, q.RadiusMillis)
		}
	}
	r.queries.Add(uint64(len(queries)))
	out := make([][]Ranked, len(queries))
	for i := range queries {
		res, err := r.withinRanked(queries[i].From, queries[i].RadiusMillis)
		if err != nil {
			// Unreachable: the batch was validated above.
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
