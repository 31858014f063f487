package netcoord

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"netcoord/internal/index"
	"netcoord/internal/xrand"
)

// oracle is index.Brute over a registry snapshot — the O(n) scan every
// registry answer must match bit for bit — and the snapshot's
// coordinates by id, which an answer must carry.
type oracle struct {
	*index.Brute
	coords map[string]Coordinate
}

func bruteOracle(t *testing.T, snap []RegistryEntry) *oracle {
	t.Helper()
	b, err := index.NewBrute(3)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{Brute: b, coords: make(map[string]Coordinate, len(snap))}
	for _, e := range snap {
		if err := b.Insert(e.ID, e.Coord); err != nil {
			t.Fatal(err)
		}
		o.coords[e.ID] = e.Coord
	}
	return o
}

// bruteNearest asks the oracle for everything within bound, ranked by
// (distance, id), drops the excluded id and keeps k.
func bruteNearest(t *testing.T, o *oracle, from Coordinate, k int, exclude string, bound float64) []Ranked {
	t.Helper()
	ns, err := o.Within(from, bound)
	if err != nil {
		t.Fatal(err)
	}
	var out []Ranked
	for _, n := range ns {
		if n.ID != exclude && len(out) < k {
			out = append(out, Ranked{Candidate: Candidate{ID: n.ID, Coord: o.coords[n.ID]}, EstimatedRTT: n.Distance})
		}
	}
	return out
}

// rankedEqual requires bit-identical results: same ids, same distances,
// same coordinates, same order.
func rankedEqual(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].EstimatedRTT != b[i].EstimatedRTT || !a[i].Coord.Equal(b[i].Coord) {
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

// TestQueryEngineMatchesOracle is the acceptance property test: over
// random k, exclusions, radius bounds, and grid-snapped duplicate
// distances, Query and every entry point over it — Nearest, Into reuse,
// NearestTo, Within, and the batch — must agree bit-for-bit with
// index.Brute. Within is checked at a random radius and at 0, +Inf and
// exactly a stored point's distance, where the <= bound must keep it.
func TestQueryEngineMatchesOracle(t *testing.T) {
	rng := xrand.NewStream(1011)
	r := newTestRegistry(t, RegistryConfig{Dimension: 3})
	const n = 4000
	ids := make([]string, 0, n)
	batchEntries := make([]RegistryEntry, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%05d", i)
		c := testCoord(rng, 3)
		if rng.Bernoulli(0.3) {
			// Snap to a coarse grid so duplicate distances are common
			// and tie-breaking by id is genuinely hit.
			for d := range c.Vec {
				c.Vec[d] = float64(int(c.Vec[d]) / 40 * 40)
			}
			c.Height = 0
		}
		ids = append(ids, id)
		batchEntries = append(batchEntries, RegistryEntry{ID: id, Coord: c})
	}
	// Half bulk-built, half inserted one by one, then some moved and
	// some removed: the tree the queries walk has appended slots,
	// tombstones and revived leaves, not just a fresh build's layout.
	if err := r.UpsertBatch(batchEntries[:n/2]); err != nil {
		t.Fatal(err)
	}
	for _, e := range batchEntries[n/2:] {
		if err := r.Upsert(e.ID, e.Coord, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/10; i++ {
		id := ids[rng.Intn(n)]
		if rng.Bernoulli(0.2) {
			r.Remove(id)
		} else if err := r.Upsert(id, testCoord(rng, 3), 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	if len(snap) != r.Len() || len(snap) < n*9/10 {
		t.Fatalf("snapshot has %d entries, Len %d", len(snap), r.Len())
	}
	oracle := bruteOracle(t, snap)

	var nbatch []NearestQuery
	var nwant [][]Ranked
	var dst []Ranked
	for trial := 0; trial < 60; trial++ {
		q := testCoord(rng, 3)
		if trial%4 == 0 {
			// From a grid point, whole shells of the snapped entries tie.
			for d := range q.Vec {
				q.Vec[d] = float64(int(q.Vec[d]) / 40 * 40)
			}
			q.Height = 0
		}
		k := 1 + rng.Intn(20)
		exclude := ""
		if rng.Bernoulli(0.4) {
			exclude = snap[rng.Intn(len(snap))].ID
		}
		hasRadius := rng.Bernoulli(0.4)
		bound := math.Inf(1)
		if hasRadius {
			bound = rng.Uniform(0, 150)
		}

		want := bruteNearest(t, oracle, q, k, exclude, bound)
		query := NearestQuery{From: q, K: k, Exclude: exclude, HasRadius: hasRadius, RadiusMillis: bound}
		got, err := r.Query(query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rankedEqual(got, want) {
			t.Fatalf("trial %d (k=%d excl=%q bound=%v): engine %v, oracle %v", trial, k, exclude, bound, got, want)
		}
		nbatch = append(nbatch, query)
		nwant = append(nwant, want)

		// The wrappers on the shapes they serve.
		if exclude == "" && !hasRadius {
			dst, err = r.NearestInto(q, k, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !rankedEqual(dst, want) {
				t.Fatalf("trial %d: NearestInto %v, oracle %v", trial, dst, want)
			}
			nearest, err := r.Nearest(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !rankedEqual(nearest, want) {
				t.Fatalf("trial %d: Nearest %v, oracle %v", trial, nearest, want)
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
			ntWant := bruteNearest(t, oracle, center.Coord, k, exclude, math.Inf(1))
			if !rankedEqual(nt, ntWant) {
				t.Fatalf("trial %d: NearestTo %v, oracle %v", trial, nt, ntWant)
			}
		}

		at, err := q.DistanceTo(snap[rng.Intn(len(snap))].Coord)
		if err != nil {
			t.Fatal(err)
		}
		radii := []float64{rng.Uniform(0, 120), at}
		if trial%10 == 0 {
			radii = append(radii, 0, math.Inf(1))
		}
		for _, radius := range radii {
			within, err := r.Within(q, radius)
			if err != nil {
				t.Fatal(err)
			}
			withinWant := bruteNearest(t, oracle, q, len(snap), "", radius)
			if !rankedEqual(within, withinWant) {
				t.Fatalf("trial %d: Within(%v) %d results, oracle %d", trial, radius, len(within), len(withinWant))
			}
			if radius == at && (len(within) == 0 || within[len(within)-1].EstimatedRTT != at) {
				t.Fatalf("trial %d: Within(%v) lost the point at exactly the radius", trial, radius)
			}
			nbatch = append(nbatch, NearestQuery{From: q, K: math.MaxInt, HasRadius: true, RadiusMillis: radius})
			nwant = append(nwant, withinWant)
		}
	}

	// Batches must match the accumulated single-query answers.
	nres, err := r.NearestBatch(nbatch)
	if err != nil {
		t.Fatal(err)
	}
	// The results share one backing slice; a caller appending to one of
	// them must not write into its neighbour.
	for i := range nres {
		_ = append(nres[i], Ranked{EstimatedRTT: -1})
	}
	for i := range nres {
		if !rankedEqual(nres[i], nwant[i]) {
			t.Fatalf("NearestBatch[%d] = %v, want %v", i, nres[i], nwant[i])
		}
	}
}

// TestHugeKIsSizedByMatches: no entry point sizes storage by the
// caller's K. On a 3-entry registry every one of them, at K =
// math.MaxInt and at 1<<30 — with and without an excluded id, and a
// batch whose Ks sum past MaxInt — answers exactly what K = 3 answers,
// allocating under a megabyte in all.
func TestHugeKIsSizedByMatches(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{Dimension: 3})
	for i, id := range []string{"a", "b", "c"} {
		if err := r.Upsert(id, c3(float64(10*i), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	from := c3(1, 0, 0)
	all, err := r.Nearest(from, 3)
	if err != nil || len(all) != 3 {
		t.Fatalf("Nearest(k=3) = %v, %v", all, err)
	}
	butA, err := r.NearestTo("a", 3)
	if err != nil || len(butA) != 2 {
		t.Fatalf("NearestTo(a, 3) = %v, %v", butA, err)
	}
	check := func(name string, got []Ranked, err error, want []Ranked) {
		t.Helper()
		if err != nil || !rankedEqual(got, want) {
			t.Fatalf("%s = %v, %v; want %v", name, got, err, want)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for _, k := range []int{math.MaxInt, 1 << 30} {
		got, err := r.Nearest(from, k)
		check(fmt.Sprintf("Nearest(k=%d)", k), got, err, all)
		got, err = r.NearestInto(from, k, nil)
		check(fmt.Sprintf("NearestInto(k=%d)", k), got, err, all)
		got, err = r.NearestTo("a", k)
		check(fmt.Sprintf("NearestTo(k=%d)", k), got, err, butA)
		got, err = r.Query(NearestQuery{From: from, K: k, HasRadius: true, RadiusMillis: 1e9}, nil)
		check(fmt.Sprintf("Query(radius, k=%d)", k), got, err, all)
		got, err = r.Query(NearestQuery{From: c3(0, 0, 0), K: k, Exclude: "a"}, nil)
		check(fmt.Sprintf("Query(exclude, k=%d)", k), got, err, butA)
		batch, err := r.NearestBatch([]NearestQuery{
			{From: from, K: k},
			{From: c3(0, 0, 0), K: k, Exclude: "a"},
			{From: from, K: k, HasRadius: true, RadiusMillis: math.Inf(1)},
		})
		if err != nil || len(batch) != 3 {
			t.Fatalf("NearestBatch(k=%d) = %v, %v", k, batch, err)
		}
		check(fmt.Sprintf("NearestBatch[0](k=%d)", k), batch[0], nil, all)
		check(fmt.Sprintf("NearestBatch[1](k=%d)", k), batch[1], nil, butA)
		check(fmt.Sprintf("NearestBatch[2](k=%d)", k), batch[2], nil, all)
	}
	got, err := r.Within(from, math.Inf(1))
	check("Within(+Inf)", got, err, all)
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew >= 1<<20 {
		t.Fatalf("huge-K queries allocated %d bytes, want under 1 MB", grew)
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
	if _, err := r.NearestBatch([]NearestQuery{
		{From: c3(0, 0, 0), K: math.MaxInt, HasRadius: true, RadiusMillis: 10},
		{From: c3(0, 0, 0), K: math.MaxInt, HasRadius: true, RadiusMillis: math.NaN()},
	}); err == nil {
		t.Fatal("batch with NaN radius succeeded")
	}
	if got := r.Stats().Queries; got != q0 {
		t.Fatalf("failed batches bumped the query counter: %d -> %d", q0, got)
	}
	empty, err := r.NearestBatch(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch = %v, %v", empty, err)
	}
}

// TestQueryEngineChurnStress hammers every read entry point — single
// queries, Into reuse, and batches of both shapes — against concurrent upserts,
// removes, and TTL evictions, under the race detector. Results must
// stay well-formed (sorted, error-free) throughout, and once the dust
// settles — and again after Close — match index.Brute exactly.
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
		Dimension: 3,
		TTL:       time.Hour, // the janitor never ticks: evictions driven explicitly below
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	seedRNG := xrand.NewStream(77)
	const nSeed = 2304
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
					res, err := r.NearestBatch([]NearestQuery{
						{From: q, K: math.MaxInt, HasRadius: true, RadiusMillis: rng.Uniform(0, 80)},
						{From: testCoord(rng, 3), K: math.MaxInt, HasRadius: true, RadiusMillis: rng.Uniform(0, 80)},
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

	// Quiescent again: what the churn left must answer exactly, and
	// keep answering after Close.
	rng := xrand.NewStream(400)
	for i := 0; i < 64; i++ { // however much the evictor took, these remain
		if err := r.Upsert(fmt.Sprintf("late-%02d", i), testCoord(rng, 3), 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	oracle := bruteOracle(t, snap)
	check := func(stage string) {
		t.Helper()
		for trial := 0; trial < 20; trial++ {
			q, k := testCoord(rng, 3), 1+rng.Intn(16)
			got, err := r.Nearest(q, k)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if want := bruteNearest(t, oracle, q, k, "", math.Inf(1)); !rankedEqual(got, want) {
				t.Fatalf("%s trial %d: Nearest %v, oracle %v", stage, trial, got, want)
			}
			radius := rng.Uniform(0, 80)
			within, err := r.Within(q, radius)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if want := bruteNearest(t, oracle, q, len(snap), "", radius); !rankedEqual(within, want) {
				t.Fatalf("%s trial %d: Within(%v) %d results, oracle %d", stage, trial, radius, len(within), len(want))
			}
		}
	}
	check("after churn")
	r.Close()
	check("after Close")
}
