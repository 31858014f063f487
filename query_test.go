package netcoord

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"netcoord/internal/index"
	"netcoord/internal/xrand"
)

// oldNearestWalk is the pre-fan-out Registry.nearest, kept verbatim as
// the reference the new engine must match bit-for-bit: per-shard
// KNearestBound, append, sort.Slice, truncate, tighten.
func oldNearestWalk(r *Registry, from Coordinate, k int, exclude string, bound float64) ([]Ranked, error) {
	if k <= 0 {
		return nil, fmt.Errorf("netcoord: k = %d, want > 0", k)
	}
	perShard := k
	if exclude != "" {
		perShard++
	}
	var merged []index.Neighbor
	for _, s := range r.shards {
		s.mu.RLock()
		ns, err := s.tree.KNearestBound(from, perShard, bound)
		s.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		merged = append(merged, ns...)
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].Distance != merged[j].Distance {
				return merged[i].Distance < merged[j].Distance
			}
			return merged[i].ID < merged[j].ID
		})
		if len(merged) > perShard {
			merged = merged[:perShard]
		}
		if len(merged) == perShard {
			bound = merged[len(merged)-1].Distance
		}
	}
	out := make([]Ranked, 0, k)
	for _, n := range merged {
		if n.ID == exclude {
			continue
		}
		out = append(out, Ranked{
			Candidate:    Candidate{ID: n.ID, Coord: n.Coord},
			EstimatedRTT: n.Distance,
		})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// bruteNearest is the O(n) oracle: rank a snapshot by (distance, id),
// drop the excluded id and anything past the bound, keep k.
func bruteNearest(t *testing.T, snap []RegistryEntry, from Coordinate, k int, exclude string, bound float64) []Ranked {
	t.Helper()
	var out []Ranked
	for _, e := range snap {
		if e.ID == exclude {
			continue
		}
		d, err := from.DistanceTo(e.Coord)
		if err != nil {
			t.Fatal(err)
		}
		if d <= bound {
			out = append(out, Ranked{Candidate: Candidate{ID: e.ID, Coord: e.Coord}, EstimatedRTT: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EstimatedRTT != out[j].EstimatedRTT {
			return out[i].EstimatedRTT < out[j].EstimatedRTT
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// rankedEqual requires bit-identical results: same ids, same distances,
// same order.
func rankedEqual(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].EstimatedRTT != b[i].EstimatedRTT {
			return false
		}
	}
	return true
}

func rankedSorted(rs []Ranked) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].EstimatedRTT < rs[i-1].EstimatedRTT {
			return false
		}
		if rs[i].EstimatedRTT == rs[i-1].EstimatedRTT && rs[i].ID <= rs[i-1].ID {
			return false
		}
	}
	return true
}

// TestQueryEngineMatchesOracleAndOldWalk is the acceptance property
// test: across shard counts and parallelism settings, random k,
// exclusions, radius bounds, and grid-snapped duplicate distances, the
// new engine — single queries, Into reuse, and both batch entry points
// — must agree bit-for-bit with the brute-force oracle and with the old
// sequential sort.Slice walk. Entry counts sit past the fan-out
// crossover for the eligible configs, so the parallel path is the one
// under test there.
func TestQueryEngineMatchesOracleAndOldWalk(t *testing.T) {
	configs := []struct{ shards, parallelism int }{
		{1, 1}, {2, 4}, {4, 1}, {4, 4}, {8, 4}, {16, 2},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(fmt.Sprintf("shards=%d,par=%d", tc.shards, tc.parallelism), func(t *testing.T) {
			t.Parallel()
			rng := xrand.NewStream(uint64(1000 + tc.shards*10 + tc.parallelism))
			r := newTestRegistry(t, RegistryConfig{
				Dimension:        3,
				Shards:           tc.shards,
				QueryParallelism: tc.parallelism,
			})
			n := tc.shards*queryParallelMinPerShard + 300
			ids := make([]string, 0, n)
			batchEntries := make([]RegistryEntry, 0, n)
			for i := 0; i < n; i++ {
				id := fmt.Sprintf("node-%05d", i)
				c := testCoord(rng, 3)
				if rng.Bernoulli(0.3) {
					// Snap to a coarse grid so duplicate distances are
					// common and tie-breaking by id is genuinely hit.
					for d := range c.Vec {
						c.Vec[d] = float64(int(c.Vec[d]) / 40 * 40)
					}
					c.Height = 0
				}
				ids = append(ids, id)
				batchEntries = append(batchEntries, RegistryEntry{ID: id, Coord: c})
			}
			if err := r.UpsertBatch(batchEntries); err != nil {
				t.Fatal(err)
			}
			snap := r.Snapshot()
			if len(snap) != n {
				t.Fatalf("snapshot has %d entries, want %d", len(snap), n)
			}

			var nbatch []NearestQuery
			var nwant [][]Ranked
			var wbatch []WithinQuery
			var wwant [][]Ranked
			var dst []Ranked
			for trial := 0; trial < 30; trial++ {
				q := testCoord(rng, 3)
				k := 1 + rng.Intn(20)
				exclude := ""
				if rng.Bernoulli(0.4) {
					exclude = ids[rng.Intn(len(ids))]
				}
				hasRadius := rng.Bernoulli(0.4)
				bound := math.Inf(1)
				if hasRadius {
					bound = rng.Uniform(0, 150)
				}

				want := bruteNearest(t, snap, q, k, exclude, bound)
				old, err := oldNearestWalk(r, q, k, exclude, bound)
				if err != nil {
					t.Fatal(err)
				}
				if !rankedEqual(old, want) {
					t.Fatalf("trial %d: old walk disagrees with oracle: %v vs %v", trial, old, want)
				}
				got, err := r.nearestInto(q, k, exclude, bound, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rankedEqual(got, want) {
					t.Fatalf("trial %d (k=%d excl=%q bound=%v): engine %v, oracle %v", trial, k, exclude, bound, got, want)
				}
				nbatch = append(nbatch, NearestQuery{From: q, K: k, Exclude: exclude, HasRadius: hasRadius, RadiusMillis: bound})
				nwant = append(nwant, want)

				// Exported wrappers on the shapes they serve.
				if exclude == "" && !hasRadius {
					dst, err = r.NearestInto(q, k, dst)
					if err != nil {
						t.Fatal(err)
					}
					if !rankedEqual(dst, want) {
						t.Fatalf("trial %d: NearestInto %v, oracle %v", trial, dst, want)
					}
				}
				if exclude == "" && hasRadius {
					lim, err := r.WithinLimit(q, bound, k)
					if err != nil {
						t.Fatal(err)
					}
					if !rankedEqual(lim, want) {
						t.Fatalf("trial %d: WithinLimit %v, oracle %v", trial, lim, want)
					}
				}
				if exclude != "" {
					center, ok := r.Get(exclude)
					if !ok {
						t.Fatalf("trial %d: %q vanished", trial, exclude)
					}
					nt, err := r.NearestTo(exclude, k)
					if err != nil {
						t.Fatal(err)
					}
					ntWant := bruteNearest(t, snap, center.Coord, k, exclude, math.Inf(1))
					if !rankedEqual(nt, ntWant) {
						t.Fatalf("trial %d: NearestTo %v, oracle %v", trial, nt, ntWant)
					}
				}

				radius := rng.Uniform(0, 120)
				within, err := r.Within(q, radius)
				if err != nil {
					t.Fatal(err)
				}
				withinWant := bruteNearest(t, snap, q, len(snap), "", radius)
				if !rankedEqual(within, withinWant) {
					t.Fatalf("trial %d: Within(%v) %d results, oracle %d", trial, radius, len(within), len(withinWant))
				}
				wbatch = append(wbatch, WithinQuery{From: q, RadiusMillis: radius})
				wwant = append(wwant, withinWant)
			}

			// Batches must match the accumulated single-query answers.
			nres, err := r.NearestBatch(nbatch)
			if err != nil {
				t.Fatal(err)
			}
			// The results share one backing slice; a caller appending to
			// one of them must not write into its neighbour.
			for i := range nres {
				_ = append(nres[i], Ranked{EstimatedRTT: -1})
			}
			for i := range nres {
				if !rankedEqual(nres[i], nwant[i]) {
					t.Fatalf("NearestBatch[%d] = %v, want %v", i, nres[i], nwant[i])
				}
			}
			wres, err := r.WithinBatch(wbatch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wres {
				if !rankedEqual(wres[i], wwant[i]) {
					t.Fatalf("WithinBatch[%d] = %v, want %v", i, wres[i], wwant[i])
				}
			}
		})
	}
}

// TestBatchValidatesWholeBatch pins the atomic-validation contract: one
// bad query fails the whole batch before anything runs, and an empty
// batch succeeds trivially.
func TestBatchValidatesWholeBatch(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{Dimension: 3})
	if err := r.Upsert("a", c3(1, 2, 3), 0); err != nil {
		t.Fatal(err)
	}
	q0 := r.Stats().Queries
	if _, err := r.NearestBatch([]NearestQuery{
		{From: c3(0, 0, 0), K: 1},
		{From: c3(0, 0, 0), K: 0},
	}); err == nil {
		t.Fatal("batch with k=0 succeeded")
	}
	if _, err := r.NearestBatch([]NearestQuery{
		{From: c3(0, 0, 0), K: 1, HasRadius: true, RadiusMillis: -1},
	}); err == nil {
		t.Fatal("batch with negative radius succeeded")
	}
	if _, err := r.NearestBatch([]NearestQuery{
		{From: Origin(2), K: 1},
	}); err == nil {
		t.Fatal("batch with wrong-dimension coordinate succeeded")
	}
	if _, err := r.WithinBatch([]WithinQuery{
		{From: c3(0, 0, 0), RadiusMillis: 10},
		{From: c3(0, 0, 0), RadiusMillis: math.NaN()},
	}); err == nil {
		t.Fatal("within batch with NaN radius succeeded")
	}
	if got := r.Stats().Queries; got != q0 {
		t.Fatalf("failed batches bumped the query counter: %d -> %d", q0, got)
	}
	empty, err := r.NearestBatch(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch = %v, %v", empty, err)
	}
}

// TestQueryEngineChurnStress hammers the parallel query engine — single
// queries, Into reuse, and both batches — against concurrent upserts,
// removes, and TTL evictions, under the race detector. Results must
// stay well-formed (sorted, error-free) throughout.
func TestQueryEngineChurnStress(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	r, err := NewRegistry(RegistryConfig{
		Dimension:        3,
		Shards:           8,
		TTL:              time.Hour,
		JanitorInterval:  24 * time.Hour, // evictions driven explicitly below
		Clock:            clock,
		QueryParallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Seed past the fan-out crossover so queries take the parallel path.
	seedRNG := xrand.NewStream(77)
	nSeed := 8*queryParallelMinPerShard + 256
	seed := make([]RegistryEntry, nSeed)
	for i := range seed {
		seed[i] = RegistryEntry{ID: fmt.Sprintf("node-%05d", i), Coord: testCoord(seedRNG, 3)}
	}
	if err := r.UpsertBatch(seed); err != nil {
		t.Fatal(err)
	}

	const iters = 300
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Mutators: churn upserts and removes across the seeded id space.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewStream(uint64(200 + w))
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("node-%05d", rng.Intn(nSeed))
				if rng.Bernoulli(0.7) {
					if err := r.Upsert(id, testCoord(rng, 3), rng.Float64()); err != nil {
						report("upsert: %v", err)
						return
					}
				} else {
					r.Remove(id)
				}
			}
		}(w)
	}

	// Evictor: age a slice of the registry out from under the queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			advance(10 * time.Minute)
			r.EvictStale()
		}
	}()

	// Queriers: every read entry point, continuously.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewStream(uint64(300 + w))
			var dst []Ranked
			for i := 0; i < iters; i++ {
				q := testCoord(rng, 3)
				switch i % 4 {
				case 0:
					res, err := r.Nearest(q, 1+rng.Intn(8))
					if err != nil {
						report("nearest: %v", err)
						return
					}
					if !rankedSorted(res) {
						report("nearest results out of order: %v", res)
						return
					}
				case 1:
					res, err := r.NearestInto(q, 8, dst)
					if err != nil {
						report("nearest into: %v", err)
						return
					}
					if !rankedSorted(res) {
						report("into results out of order: %v", res)
						return
					}
					dst = res
				case 2:
					batch := make([]NearestQuery, 1+rng.Intn(6))
					for b := range batch {
						batch[b] = NearestQuery{From: testCoord(rng, 3), K: 1 + rng.Intn(8)}
						if rng.Bernoulli(0.3) {
							batch[b].HasRadius = true
							batch[b].RadiusMillis = rng.Uniform(0, 100)
						}
					}
					res, err := r.NearestBatch(batch)
					if err != nil {
						report("nearest batch: %v", err)
						return
					}
					for _, rs := range res {
						if !rankedSorted(rs) {
							report("batch results out of order: %v", rs)
							return
						}
					}
				case 3:
					res, err := r.WithinBatch([]WithinQuery{
						{From: q, RadiusMillis: rng.Uniform(0, 80)},
						{From: testCoord(rng, 3), RadiusMillis: rng.Uniform(0, 80)},
					})
					if err != nil {
						report("within batch: %v", err)
						return
					}
					for _, rs := range res {
						if !rankedSorted(rs) {
							report("within batch out of order: %v", rs)
							return
						}
					}
				}
			}
		}(w)
	}

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestLiveCounterTracksMutations pins the advisory live-entry counter
// the fan-out crossover reads: upserts, refreshes, batch warm-ups,
// removes, and TTL evictions must keep it equal to Len.
func TestLiveCounterTracksMutations(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	r := newTestRegistry(t, RegistryConfig{
		Dimension:       3,
		Shards:          4,
		TTL:             time.Hour,
		JanitorInterval: 24 * time.Hour,
		Clock: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	})
	check := func(stage string) {
		t.Helper()
		if got, want := r.live.Load(), int64(r.Len()); got != want {
			t.Fatalf("%s: live = %d, Len = %d", stage, got, want)
		}
	}
	// Bulk warm-up with an in-batch duplicate: counted once.
	if err := r.UpsertBatch([]RegistryEntry{
		{ID: "a", Coord: c3(0, 0, 0)},
		{ID: "b", Coord: c3(1, 0, 0)},
		{ID: "a", Coord: c3(2, 0, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	check("bulk build")
	// Fresh insert, refresh (same coord), move (new coord): one net add.
	if err := r.Upsert("c", c3(3, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Upsert("c", c3(3, 0, 0), 0.1); err != nil {
		t.Fatal(err)
	}
	if err := r.Upsert("c", c3(4, 0, 0), 0.1); err != nil {
		t.Fatal(err)
	}
	check("single upserts")
	// Per-entry batch path over a warm shard set.
	if err := r.UpsertBatch([]RegistryEntry{
		{ID: "c", Coord: c3(5, 0, 0)},
		{ID: "d", Coord: c3(6, 0, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	check("incremental batch")
	if !r.Remove("a") || r.Remove("a") {
		t.Fatal("Remove semantics changed")
	}
	check("remove")
	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()
	if n := r.EvictStale(); n == 0 {
		t.Fatal("eviction removed nothing")
	}
	check("evict")
}
