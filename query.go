package netcoord

// query.go is the Registry's read path. Every proximity query is a
// NearestQuery — k nearest, optionally excluding one id, optionally
// within a radius — and every one is answered by Query's one walk of
// the registry's one tree under the read lock. A radius query is that
// same kNN walk with a K no registry reaches: its heap never fills, so
// its bound is the radius and never tightens. Nearest, NearestInto,
// NearestTo and Within are Query with a fixed shape; NearestBatch
// answers many queries, each through the same core. Read concurrency
// comes from concurrent callers sharing the read lock, not from
// splitting a query up: a single query is never split, and a
// NearestBatch is split only between queries, into contiguous per-core
// chunks, each query still one walk under its own hold of the read lock.
//
// Allocation discipline: the candidate heap a query needs is pooled,
// and results are sized by what the walk returned, never by the
// caller's K, so the steady-state NearestInto path performs zero
// allocations per query (CI-gated via benchjson -require-zero-alloc,
// statically checked by nclint's hotpath analyzer through the
// //nc:hotpath annotations).

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
// heap of the walk and the bound it tightens, pooled because a local
// one would escape to the heap through the search. The heap keeps its
// backing array across queries.
type queryScratch struct {
	heap  *bheap.Heap[index.Neighbor]
	bound index.Bound
}

func newQueryScratch() *queryScratch {
	return &queryScratch{heap: bheap.New(0, index.NeighborBefore)}
}

// NearestQuery is one proximity query: the K registered nodes with the
// smallest estimated RTT from From, optionally excluding one id and
// optionally within a radius.
type NearestQuery struct {
	// From is the query coordinate.
	From Coordinate
	// K bounds the result count; it must be > 0. A radius query that
	// wants every match passes math.MaxInt, as Within does.
	K int
	// Exclude drops this id from the results (the NearestTo shape);
	// empty excludes nothing.
	Exclude string
	// HasRadius restricts results to estimated RTT <= RadiusMillis (the
	// Within shape). With HasRadius false, RadiusMillis is ignored.
	HasRadius bool
	// RadiusMillis is the radius bound when HasRadius is set.
	RadiusMillis float64
}

// Query answers one proximity query: up to q.K registered nodes, ranked
// by estimated RTT from q.From ascending with ties broken by id, fewer
// if fewer match. Results are appended to dst[:0] and the filled slice
// is returned, so a caller that reuses dst across queries pays zero
// steady-state allocations; storage is sized by the matches found,
// never by q.K. The answer comes from the spatial index, so it is exact
// while the work stays O(log n · K), and a radius doubles as the
// search's pruning bound. Each Ranked returned pins the index arena —
// the registry's whole store — it was read from, until it is dropped
// (see Ranked).
//
//nc:hotpath
func (r *Registry) Query(q NearestQuery, dst []Ranked) ([]Ranked, error) {
	if q.HasRadius && !(q.RadiusMillis >= 0) {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return nil, fmt.Errorf("netcoord: registry within: radius %v, want >= 0", q.RadiusMillis)
	}
	if q.K <= 0 {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return nil, fmt.Errorf("netcoord: k = %d, want > 0", q.K)
	}
	if err := q.From.Validate(r.dim); err != nil {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return nil, fmt.Errorf("netcoord: registry nearest: %w", err)
	}
	r.queries.Add(1)
	return r.query(&q, dst), nil
}

// query is Query's core for a validated query: one walk into the
// pooled heap, then the excluded id dropped, the rest sorted and the
// first K resolved and appended to dst[:0], all in one hold of the read
// lock. It does not count the query.
//
//nc:hotpath
func (r *Registry) query(q *NearestQuery, dst []Ranked) []Ranked {
	// One extra candidate, so dropping the excluded node still leaves K;
	// a K that wants everything already has room for it.
	want := q.K
	if q.Exclude != "" && want < math.MaxInt {
		want++
	}
	bound := math.Inf(1)
	if q.HasRadius {
		bound = q.RadiusMillis
	}
	qs := r.scratch.Get().(*queryScratch)
	qs.heap.Reset(want)
	qs.bound.Reset(bound)
	r.mu.RLock()
	// The query was validated, which is the tree's only failure.
	_ = r.tree.KNearestInto(q.From, want, qs.heap, &qs.bound)
	ns := qs.heap.Items()
	for i := range ns {
		if ns[i].ID == q.Exclude {
			// An id is in the tree once; order is restored by the sort.
			ns[i] = ns[len(ns)-1]
			ns = ns[:len(ns)-1]
			break
		}
	}
	index.SortNeighbors(ns)
	ns = ns[:min(len(ns), q.K)]
	dst = dst[:0]
	if cap(dst) < len(ns) {
		dst = make([]Ranked, 0, len(ns)) //nc:allow(hotpath) storage the caller did not supply, sized by the matches found
	}
	// A neighbor's slot is valid until the tree next changes, so the
	// kept ones are resolved to their coordinates in the walk's hold.
	for _, n := range ns {
		c, memo := r.tree.Point(n.Slot)
		dst = append(dst, Ranked{Candidate: Candidate{ID: n.ID, Coord: c}, EstimatedRTT: n.Distance, memo: memo})
	}
	r.mu.RUnlock()
	r.scratch.Put(qs)
	return dst
}

// Nearest returns the k registered nodes with the smallest estimated RTT
// from the given coordinate, ascending (ties broken by id). Fewer than k
// are returned if the registry holds fewer. Callers on a zero-allocation
// budget use NearestInto.
func (r *Registry) Nearest(from Coordinate, k int) ([]Ranked, error) {
	return r.Query(NearestQuery{From: from, K: k}, nil)
}

// NearestInto is Nearest filling caller-owned storage, as Query does.
//
//nc:hotpath
func (r *Registry) NearestInto(from Coordinate, k int, dst []Ranked) ([]Ranked, error) {
	return r.Query(NearestQuery{From: from, K: k}, dst)
}

// NearestTo is Nearest centered on a registered node, excluding the node
// itself — "which replicas are closest to this client".
func (r *Registry) NearestTo(id string, k int) ([]Ranked, error) {
	e, ok := r.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownID, id)
	}
	return r.Query(NearestQuery{From: e.Coord, K: k, Exclude: id}, nil)
}

// Within returns every registered node with estimated RTT <= radiusMillis
// from the given coordinate, ascending (ties broken by id) — the
// "replicas inside my latency budget" query. Cost is proportional to the
// number of matches; services exposed to untrusted radii pass a bounded
// K to Query instead.
func (r *Registry) Within(from Coordinate, radiusMillis float64) ([]Ranked, error) {
	return r.Query(NearestQuery{From: from, K: math.MaxInt, HasRadius: true, RadiusMillis: radiusMillis}, nil)
}

// batchForkMin is the size of the chunks a split NearestBatch is
// answered in, and the fewest queries per goroutine it forks: below it
// the hand-off costs more than the queries it moves.
const batchForkMin = 8

// NearestBatch answers many queries in one call. The whole batch
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
	for i := range queries {
		q := &queries[i]
		if q.K <= 0 {
			return nil, fmt.Errorf("netcoord: registry batch query %d: k = %d, want > 0", i, q.K)
		}
		if err := q.From.Validate(r.dim); err != nil {
			return nil, fmt.Errorf("netcoord: registry batch query %d: %w", i, err)
		}
		if q.HasRadius && !(q.RadiusMillis >= 0) {
			return nil, fmt.Errorf("netcoord: registry batch query %d: radius %v, want >= 0", i, q.RadiusMillis)
		}
	}
	r.queries.Add(uint64(len(queries)))
	// Every query's results are carved out of one backing slice: one
	// allocation per batch instead of one per query. A query is carved
	// what it can return, min(K, entries), and its carving is capped
	// there, so one that finds more (the registry grew meanwhile)
	// reallocates rather than reaching into the next.
	entries := r.Len()
	total := 0
	for i := range queries {
		total += min(queries[i].K, entries)
	}
	out := make([][]Ranked, len(queries))
	backing := make([]Ranked, total)
	for i := range queries {
		n := min(queries[i].K, entries)
		out[i], backing = backing[:0:n], backing[n:]
	}
	workers := min(len(queries)/batchForkMin, runtime.GOMAXPROCS(0))
	if workers < 2 {
		r.answerChunk(queries, out)
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
			r.answerChunk(queries[lo:hi], out[lo:hi])
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

// answerChunk answers validated queries, each into its carving in out.
func (r *Registry) answerChunk(queries []NearestQuery, out [][]Ranked) {
	for i := range queries {
		out[i] = r.query(&queries[i], out[i])
	}
}
