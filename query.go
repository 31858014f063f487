package netcoord

// query.go is the Registry's read engine: every proximity query —
// Nearest, NearestTo, WithinLimit, Within, and their batched variants —
// funnels into the machinery here.
//
// Two execution paths share one correctness contract. The sequential
// walk carries a single bounded heap across the shards, tightening its
// pruning bound as it goes. The parallel fan-out hands every shard to a
// reusable worker pool, each shard filling its own heap while all of
// them prune against one shared atomic Bound (the best kth distance any
// shard has proven so far), and the per-shard heaps merge through one
// final bounded heap. Both paths accept candidates at distance <= the
// bound and break distance ties by id, so they produce bit-identical
// results — to each other and to a single tree over the whole point set
// (the property the internal/index tests pin down).
//
// Allocation discipline: the scratch a query needs — candidate heaps,
// per-shard result slots, merge buffers — lives in a pooled queryCtx,
// so the steady-state NearestInto path performs zero allocations per
// query (CI-gated via benchjson -require-zero-alloc, statically checked
// by nclint's hotpath analyzer through the //nc:hotpath annotations).

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"netcoord/internal/bheap"
	"netcoord/internal/index"
)

const (
	// queryParallelMinShards and queryParallelMinPerShard set the
	// fan-out crossover: with fewer shards, or fewer live entries per
	// shard, the per-task handoff costs more than the tree walk it
	// parallelizes, so the sequential path wins. Picked by
	// BenchmarkRegistryNearestParallel vs BenchmarkRegistryNearestSeq.
	queryParallelMinShards   = 4
	queryParallelMinPerShard = 256

	// maxBatchArena caps (in neighbors) the scratch arena one batched
	// query chunk may claim, so giant batches stream through bounded
	// memory instead of materializing shards x queries x k at once.
	maxBatchArena = 1 << 18
)

// queryOp selects what a fanned-out shard task computes.
type queryOp uint8

const (
	opNearest queryOp = iota
	opWithin
	opBatchNearest
	opBatchWithin
)

// queryTask is one unit of fan-out work: run query context qc against
// shard shard. Tasks are value-sized so channel handoff never allocates.
type queryTask struct {
	qc    *queryCtx
	shard int
}

// run executes the task and signals the dispatcher when it was the last
// one standing. The atomic decrement plus the buffered done send is the
// completion barrier: the dispatcher's receive happens-after every
// task's writes.
//
//nc:hotpath
func (t queryTask) run() {
	qc := t.qc
	switch qc.op {
	case opNearest:
		qc.runNearestShard(t.shard)
	case opWithin:
		qc.runWithinShard(t.shard)
	case opBatchNearest:
		qc.runBatchShard(t.shard)
	case opBatchWithin:
		qc.runWithinBatchShard(t.shard)
	}
	if qc.remaining.Add(-1) == 0 {
		qc.done <- struct{}{}
	}
}

// queryCtx is the pooled per-query scratch arena: everything a query
// needs beyond its output lives here and is reused, which is what makes
// the steady-state kNN path allocation-free. A ctx is owned by exactly
// one query at a time (taken from and returned to the registry's pool),
// but while a fan-out is in flight its fields are read by worker
// goroutines; the dispatch barrier orders those accesses.
type queryCtx struct {
	r  *Registry
	op queryOp

	// Single-query inputs, read by shard tasks.
	from     Coordinate
	perShard int
	radius   float64
	bound    index.Bound

	// Batch inputs. offs holds per-chunk prefix sums of the per-query
	// heap capacities (len = queries+1); block is the arena stride per
	// shard; arena is laid out shard-major: shard si's slot for query q
	// is arena[si*block+offs[q] : si*block+offs[q+1]], counts[si*Q+q]
	// results long.
	batch    []NearestQuery
	wqueries []WithinQuery
	bounds   []index.Bound
	offs     []int
	block    int
	arena    []index.Neighbor
	counts   []int

	// Scratch: one candidate heap per shard for the fan-out, one merge
	// heap, per-shard radius buffers, and a merged radius buffer. All
	// keep their backing arrays across queries.
	heaps  []*bheap.Heap[index.Neighbor]
	merge  *bheap.Heap[index.Neighbor]
	wbufs  [][]index.Neighbor
	wmerge []index.Neighbor

	remaining atomic.Int32
	done      chan struct{}
}

// newQueryCtx builds the scratch for one in-flight query; the pool
// calls it only when empty, so its allocations amortize to zero.
func newQueryCtx(r *Registry) *queryCtx {
	qc := &queryCtx{
		r:     r,
		heaps: make([]*bheap.Heap[index.Neighbor], len(r.shards)),
		wbufs: make([][]index.Neighbor, len(r.shards)),
		merge: bheap.New(0, index.NeighborBefore),
		done:  make(chan struct{}, 1),
	}
	for i := range qc.heaps {
		qc.heaps[i] = bheap.New(0, index.NeighborBefore)
	}
	return qc
}

// getQueryCtx takes a scratch context from the pool.
//
//nc:hotpath
func (r *Registry) getQueryCtx() *queryCtx {
	return r.qctxPool.Get().(*queryCtx)
}

// putQueryCtx returns a context to the pool, dropping references to
// caller-owned inputs so the pool does not pin them.
//
//nc:hotpath
func (r *Registry) putQueryCtx(qc *queryCtx) {
	qc.from = Coordinate{}
	qc.batch = nil
	qc.wqueries = nil
	r.qctxPool.Put(qc)
}

// resolveQueryWorkers turns the configured parallelism into a worker
// count: 0 means GOMAXPROCS; the count is capped at the shard count,
// since extra workers would only idle.
func resolveQueryWorkers(configured, shards int) int {
	n := configured
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > shards {
		n = shards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// queryPoolReady reports whether the fan-out worker pool is usable,
// starting it on first use. The lazy start keeps registries that never
// see a large query (tests, small deployments) from carrying idle
// goroutines. After Close no new pool can start and queries fall back
// to the sequential walk — the registry stays queryable, as Close
// documents.
//
//nc:hotpath
func (r *Registry) queryPoolReady() bool {
	if r.queryWorkers < 2 {
		return false
	}
	if r.qstarted.Load() {
		return true
	}
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	if r.qstarted.Load() {
		return true
	}
	select {
	case <-r.closed:
		return false
	default:
	}
	r.wg.Add(r.queryWorkers)
	for i := 0; i < r.queryWorkers; i++ {
		//nc:allow(hotpath) worker-pool start: once per registry lifetime
		go r.queryWorker()
	}
	r.qstarted.Store(true)
	return true
}

// queryWorker drains fan-out tasks until the registry closes.
func (r *Registry) queryWorker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.closed:
			return
		case t := <-r.qtasks:
			t.run()
		}
	}
}

// useParallel is the fan-out crossover: enough shards, enough live
// entries that each shard walk amortizes its handoff, and a running
// pool. The live count is advisory (maintained without locks), which
// is fine — both paths return identical results.
//
//nc:hotpath
func (r *Registry) useParallel() bool {
	return len(r.shards) >= queryParallelMinShards &&
		r.live.Load() >= int64(len(r.shards)*queryParallelMinPerShard) &&
		r.queryPoolReady()
}

// dispatch fans qc out as one task per shard and waits for all of them.
// Sends never block: a full channel runs the task inline. While
// waiting, the dispatcher helps drain the shared task channel — it may
// execute tasks belonging to other in-flight queries, which is safe
// (tasks never block) and makes dispatch deadlock-free even when the
// pool is saturated or the workers have exited after Close.
//
//nc:hotpath
func (r *Registry) dispatch(qc *queryCtx, n int) {
	qc.remaining.Store(int32(n))
	for i := 0; i < n; i++ {
		t := queryTask{qc: qc, shard: i}
		select {
		case r.qtasks <- t:
		default:
			t.run()
		}
	}
	for {
		select {
		case t := <-r.qtasks:
			t.run()
		case <-qc.done:
			return
		}
	}
}

// searchShardKNN runs one shard's tree search into h under the shared
// pruning bound. Inputs are pre-validated by the query entry points, so
// the tree's only error return is unreachable and the result is
// discarded visibly.
//
//nc:hotpath
//nc:locked(s.mu)
func searchShardKNN(s *registryShard, from Coordinate, k int, h *bheap.Heap[index.Neighbor], b *index.Bound) {
	_ = s.tree.KNearestInto(from, k, h, b)
}

// searchShardWithin appends one shard's radius matches to buf,
// returning the extended slice. Inputs are pre-validated, as above.
//
//nc:hotpath
//nc:locked(s.mu)
func searchShardWithin(s *registryShard, from Coordinate, radius float64, buf []index.Neighbor) []index.Neighbor {
	buf, _ = s.tree.WithinInto(from, radius, buf)
	return buf
}

// runNearestShard fills this shard's candidate heap for a single-point
// kNN fan-out, pruning against (and tightening) the shared bound.
//
//nc:hotpath
func (qc *queryCtx) runNearestShard(si int) {
	s := qc.r.shards[si]
	h := qc.heaps[si]
	h.Reset(qc.perShard)
	s.mu.RLock()
	searchShardKNN(s, qc.from, qc.perShard, h, &qc.bound)
	s.mu.RUnlock()
}

// runWithinShard fills this shard's radius buffer for a single-point
// Within fan-out.
//
//nc:hotpath
func (qc *queryCtx) runWithinShard(si int) {
	s := qc.r.shards[si]
	buf := qc.wbufs[si][:0]
	s.mu.RLock()
	buf = searchShardWithin(s, qc.from, qc.radius, buf)
	s.mu.RUnlock()
	qc.wbufs[si] = buf
}

// runBatchShard answers every query of the current chunk against this
// shard — shard-major execution, so the shard's tree (and its lock)
// stays hot across the whole batch — copying each query's candidates
// into its arena slot. Each query's shared Bound keeps pruning exact
// across the shards working on it concurrently.
//
//nc:hotpath
func (qc *queryCtx) runBatchShard(si int) {
	s := qc.r.shards[si]
	h := qc.heaps[si]
	nq := len(qc.batch)
	base := si * qc.block
	s.mu.RLock()
	for q := 0; q < nq; q++ {
		bq := &qc.batch[q]
		ps := qc.offs[q+1] - qc.offs[q]
		h.Reset(ps)
		searchShardKNN(s, bq.From, ps, h, &qc.bounds[q])
		qc.counts[si*nq+q] = copy(qc.arena[base+qc.offs[q]:base+qc.offs[q+1]], h.Items())
	}
	s.mu.RUnlock()
}

// runWithinBatchShard answers every radius query against this shard,
// appending matches to the shard's buffer back-to-back in query order
// and recording per-query counts for the gather.
//
//nc:hotpath
func (qc *queryCtx) runWithinBatchShard(si int) {
	s := qc.r.shards[si]
	buf := qc.wbufs[si][:0]
	nq := len(qc.wqueries)
	s.mu.RLock()
	for q := 0; q < nq; q++ {
		wq := &qc.wqueries[q]
		before := len(buf)
		buf = searchShardWithin(s, wq.From, wq.RadiusMillis, buf)
		qc.counts[si*nq+q] = len(buf) - before
	}
	s.mu.RUnlock()
	qc.wbufs[si] = buf
}

// Nearest returns the k registered nodes with the smallest estimated RTT
// from the given coordinate, ascending (ties broken by id). Fewer than k
// are returned if the registry holds fewer. Each shard answers from its
// spatial index and the per-shard bests are merged, so the result is
// exact while the work stays O(shards · log n · k) instead of a full
// scan; large registries fan the shards out across the query worker
// pool. Callers on a zero-allocation budget use NearestInto.
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
// pick a path, merge through one bounded heap, fill dst. It does not
// bump the query counter — exported wrappers do.
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
	// Ask each shard for one extra result so dropping the excluded node
	// still leaves k.
	perShard := k
	if exclude != "" {
		perShard++
	}
	qc := r.getQueryCtx()
	qc.bound.Reset(bound)
	h := qc.merge
	h.Reset(perShard)
	if r.useParallel() {
		qc.op = opNearest
		qc.from = from
		qc.perShard = perShard
		r.dispatch(qc, len(r.shards))
		for si := range r.shards {
			for _, n := range qc.heaps[si].Items() {
				h.Offer(n)
			}
		}
	} else {
		// Sequential walk: one heap carried across the stripes, the
		// bound tightening as it fills — O(k) merge state instead of
		// re-sorting an O(S·k) slice per stripe.
		for _, s := range r.shards {
			s.mu.RLock()
			searchShardKNN(s, from, perShard, h, &qc.bound)
			s.mu.RUnlock()
		}
	}
	ns := h.Items()
	index.SortNeighbors(ns)
	dst = dst[:0]
	for _, n := range ns {
		if n.ID == exclude {
			continue
		}
		dst = append(dst, Ranked{
			Candidate:    Candidate{ID: n.ID, Coord: n.Coord},
			EstimatedRTT: n.Distance,
		})
		if len(dst) == k {
			break
		}
	}
	r.putQueryCtx(qc)
	return dst, nil
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

// withinRanked is the radius core: per-shard results stream into one
// reused buffer (parallel: per-shard buffers copied once into a
// size-hinted merge), sorted once at the end.
func (r *Registry) withinRanked(from Coordinate, radius float64) ([]Ranked, error) {
	if err := from.Validate(r.dim); err != nil {
		return nil, fmt.Errorf("netcoord: registry within: %w", err)
	}
	if radius < 0 || math.IsNaN(radius) {
		return nil, fmt.Errorf("netcoord: registry within: radius %v, want >= 0", radius)
	}
	qc := r.getQueryCtx()
	var ns []index.Neighbor
	if r.useParallel() {
		qc.op = opWithin
		qc.from = from
		qc.radius = radius
		r.dispatch(qc, len(r.shards))
		total := 0
		for si := range r.shards {
			total += len(qc.wbufs[si])
		}
		if cap(qc.wmerge) < total {
			qc.wmerge = make([]index.Neighbor, 0, total)
		}
		qc.wmerge = qc.wmerge[:0]
		for si := range r.shards {
			qc.wmerge = append(qc.wmerge, qc.wbufs[si]...)
		}
		ns = qc.wmerge
	} else {
		buf := qc.wmerge[:0]
		for _, s := range r.shards {
			s.mu.RLock()
			buf = searchShardWithin(s, from, radius, buf)
			s.mu.RUnlock()
		}
		qc.wmerge = buf
		ns = buf
	}
	index.SortNeighbors(ns)
	out := make([]Ranked, len(ns))
	for i, n := range ns {
		out[i] = Ranked{
			Candidate:    Candidate{ID: n.ID, Coord: n.Coord},
			EstimatedRTT: n.Distance,
		}
	}
	r.putQueryCtx(qc)
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

// boundFor is the pruning bound a batched query starts from.
func boundFor(q *NearestQuery) float64 {
	if q.HasRadius {
		return q.RadiusMillis
	}
	return inf()
}

// perShardFor is the per-shard candidate count a batched query needs:
// one extra when an exclusion could displace a winner.
func perShardFor(q *NearestQuery) int {
	if q.Exclude != "" {
		return q.K + 1
	}
	return q.K
}

// NearestBatch answers many point queries in one call. The whole batch
// is validated first: on error, no query ran and the slice is nil.
// Results per query match the equivalent single call exactly. On the
// parallel path the batch is executed shard-major — one pool dispatch
// per chunk, every worker answering all of the chunk's queries against
// its shard while the shard's tree stays cache-hot — which is what the
// watch hub's resync recompute and POST /nearest/batch ride on.
func (r *Registry) NearestBatch(queries []NearestQuery) ([][]Ranked, error) {
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
	}
	r.queries.Add(uint64(len(queries)))
	out := make([][]Ranked, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	if !r.useParallel() {
		// Every query's results are carved out of one backing slice: one
		// allocation per batch instead of one per query.
		total := 0
		for i := range queries {
			total += queries[i].K
		}
		backing := make([]Ranked, total)
		for i := range queries {
			q := &queries[i]
			res, err := r.nearestInto(q.From, q.K, q.Exclude, boundFor(q), backing[:0:q.K])
			if err != nil {
				// Unreachable: the batch was validated above.
				return nil, err
			}
			out[i] = res
			backing = backing[q.K:]
		}
		return out, nil
	}

	nShards := len(r.shards)
	chunkCap := maxBatchArena / nShards
	qc := r.getQueryCtx()
	lo := 0
	for lo < len(queries) {
		// Extend the chunk while its arena stride stays under budget;
		// a single oversized query still forms a chunk of one.
		hi := lo
		block := 0
		qc.offs = qc.offs[:0]
		for hi < len(queries) {
			ps := perShardFor(&queries[hi])
			if hi > lo && block+ps > chunkCap {
				break
			}
			qc.offs = append(qc.offs, block)
			block += ps
			hi++
		}
		qc.offs = append(qc.offs, block)
		nq := hi - lo
		qc.batch = queries[lo:hi]
		qc.block = block
		if cap(qc.bounds) < nq {
			qc.bounds = make([]index.Bound, nq)
		}
		qc.bounds = qc.bounds[:nq]
		for q := 0; q < nq; q++ {
			qc.bounds[q].Reset(boundFor(&queries[lo+q]))
		}
		if cap(qc.counts) < nShards*nq {
			qc.counts = make([]int, nShards*nq)
		}
		qc.counts = qc.counts[:nShards*nq]
		if cap(qc.arena) < nShards*block {
			qc.arena = make([]index.Neighbor, nShards*block)
		}
		qc.arena = qc.arena[:nShards*block]

		qc.op = opBatchNearest
		r.dispatch(qc, nShards)

		// One backing slice for the chunk's results, sized by what the
		// shards found: a query returns at most K of its candidates.
		total := 0
		for q := 0; q < nq; q++ {
			found := 0
			for si := 0; si < nShards; si++ {
				found += qc.counts[si*nq+q]
			}
			total += min(queries[lo+q].K, found)
		}
		backing := make([]Ranked, total)
		for q := 0; q < nq; q++ {
			bq := &queries[lo+q]
			m := qc.merge
			m.Reset(qc.offs[q+1] - qc.offs[q])
			for si := 0; si < nShards; si++ {
				seg := qc.arena[si*block+qc.offs[q]:]
				for _, n := range seg[:qc.counts[si*nq+q]] {
					m.Offer(n)
				}
			}
			ns := m.Items()
			index.SortNeighbors(ns)
			res := backing[:0:min(bq.K, len(ns))]
			backing = backing[cap(res):]
			for _, n := range ns {
				if n.ID == bq.Exclude {
					continue
				}
				res = append(res, Ranked{
					Candidate:    Candidate{ID: n.ID, Coord: n.Coord},
					EstimatedRTT: n.Distance,
				})
				if len(res) == bq.K {
					break
				}
			}
			out[lo+q] = res
		}
		lo = hi
	}
	r.putQueryCtx(qc)
	return out, nil
}

// WithinBatch answers many radius queries in one call, shard-major on
// the parallel path like NearestBatch. The whole batch is validated
// first: on error, no query ran and the slice is nil.
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
	if len(queries) == 0 {
		return out, nil
	}
	if !r.useParallel() {
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

	nShards := len(r.shards)
	nq := len(queries)
	qc := r.getQueryCtx()
	qc.wqueries = queries
	if cap(qc.counts) < nShards*nq {
		qc.counts = make([]int, nShards*nq)
	}
	qc.counts = qc.counts[:nShards*nq]

	qc.op = opBatchWithin
	r.dispatch(qc, nShards)

	// Gather: each shard's buffer holds its matches back-to-back in
	// query order, so one running offset per shard walks them out.
	if cap(qc.offs) < nShards {
		qc.offs = make([]int, nShards)
	}
	qc.offs = qc.offs[:nShards]
	for si := range qc.offs {
		qc.offs[si] = 0
	}
	for q := 0; q < nq; q++ {
		qc.wmerge = qc.wmerge[:0]
		for si := 0; si < nShards; si++ {
			c := qc.counts[si*nq+q]
			qc.wmerge = append(qc.wmerge, qc.wbufs[si][qc.offs[si]:qc.offs[si]+c]...)
			qc.offs[si] += c
		}
		index.SortNeighbors(qc.wmerge)
		res := make([]Ranked, len(qc.wmerge))
		for i, n := range qc.wmerge {
			res[i] = Ranked{
				Candidate:    Candidate{ID: n.ID, Coord: n.Coord},
				EstimatedRTT: n.Distance,
			}
		}
		out[q] = res
	}
	r.putQueryCtx(qc)
	return out, nil
}
