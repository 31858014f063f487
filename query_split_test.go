package netcoord

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"netcoord/internal/xrand"
)

// splitProcs raises GOMAXPROCS for one test, so NearestBatch splits its
// batches whatever the machine has.
func splitProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// mixedBatch draws n queries: K from 1 to 12, a quarter excluding a
// registered id, a quarter radius-bounded.
func mixedBatch(rng *xrand.Stream, ids []string, n int) []NearestQuery {
	qs := make([]NearestQuery, n)
	for i := range qs {
		qs[i] = NearestQuery{From: testCoord(rng, 3), K: 1 + rng.Intn(12)}
		switch rng.Intn(4) {
		case 0:
			qs[i].Exclude = ids[rng.Intn(len(ids))]
		case 1:
			qs[i].HasRadius, qs[i].RadiusMillis = true, rng.Uniform(0, 60)
		}
	}
	return qs
}

// waitGoroutines waits for the goroutine count to come back to base: a
// chunk's goroutine marks itself done just before it exits.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the batches", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNearestBatchSplitMatchesSequential: a batch answered in per-core
// chunks is the sequential loop of single queries, bit for bit, at
// every batch size around the split points; every result is capped at
// its K, so appending to one cannot clobber the next; the results keep
// nothing of the queries' coordinates; and no goroutine outlives the
// call.
func TestNearestBatchSplitMatchesSequential(t *testing.T) {
	splitProcs(t, 4)
	rng := xrand.NewStream(2027)
	r := newTestRegistry(t, RegistryConfig{Dimension: 3})
	ids := make([]string, 3000)
	entries := make([]RegistryEntry, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%05d", i)
		c := testCoord(rng, 3)
		if i%3 == 0 {
			// Grid-snapped, so ties broken by id are common.
			for d := range c.Vec {
				c.Vec[d] = float64(int(c.Vec[d]) / 30 * 30)
			}
			c.Height = 0
		}
		entries[i] = RegistryEntry{ID: ids[i], Coord: c}
	}
	if err := r.UpsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sizes := []int{31, 32, 33, 256}
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		qs := mixedBatch(rng, ids, n)
		want := make([][]Ranked, n)
		for i, q := range qs {
			bound := math.Inf(1)
			if q.HasRadius {
				bound = q.RadiusMillis
			}
			res, err := r.nearestInto(q.From, q.K, q.Exclude, bound, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		got, err := r.NearestBatch(qs)
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: %d results, %v", n, len(got), err)
		}
		// Scribble over the query coordinates: results must not see it.
		for i := range qs {
			for d := range qs[i].From.Vec {
				qs[i].From.Vec[d] = math.NaN()
			}
		}
		for i := range got {
			if cap(got[i]) != qs[i].K {
				t.Fatalf("n=%d query %d: cap %d, want its K %d", n, i, cap(got[i]), qs[i].K)
			}
			_ = append(got[i], Ranked{EstimatedRTT: -1})
		}
		for i := range got {
			if !rankedEqual(got[i], want[i]) {
				t.Fatalf("n=%d query %d: batch %v, sequential %v", n, i, got[i], want[i])
			}
			for j := range got[i] {
				if !got[i][j].Coord.Equal(want[i][j].Coord) {
					t.Fatalf("n=%d query %d result %d: coord %v, want %v", n, i, j, got[i][j].Coord, want[i][j].Coord)
				}
			}
		}
	}
	waitGoroutines(t, base)
}

// TestNearestBatchSplitUnderChurn runs split batches against concurrent
// upserts and removes (under -race, the proof that chunks share nothing
// but the registry's read lock), then, quiescent, requires every batch
// answer to equal index.Brute's exactly.
func TestNearestBatchSplitUnderChurn(t *testing.T) {
	splitProcs(t, 4)
	r := newTestRegistry(t, RegistryConfig{Dimension: 3})
	seedRNG := xrand.NewStream(91)
	ids := make([]string, 1500)
	entries := make([]RegistryEntry, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%05d", i)
		entries[i] = RegistryEntry{ID: ids[i], Coord: testCoord(seedRNG, 3)}
	}
	if err := r.UpsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	const iters = 40
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewStream(uint64(500 + w))
			for i := 0; i < iters*20; i++ {
				id := ids[rng.Intn(len(ids))]
				if rng.Bernoulli(0.8) {
					if err := r.Upsert(id, testCoord(rng, 3), 0); err != nil {
						report("upsert: %v", err)
						return
					}
				} else {
					r.Remove(id)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewStream(uint64(600 + w))
			for i := 0; i < iters; i++ {
				qs := mixedBatch(rng, ids, []int{16, 32, 33}[i%3])
				res, err := r.NearestBatch(qs)
				if err != nil {
					report("batch: %v", err)
					return
				}
				for j, rs := range res {
					if len(rs) > qs[j].K || !rankedSorted(rs) {
						report("query %d of %d: %d results for k=%d, sorted %v", j, len(qs), len(rs), qs[j].K, rankedSorted(rs))
						return
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
	oracle := bruteOracle(t, r.Snapshot())
	rng := xrand.NewStream(700)
	for _, n := range []int{17, 32, 256} {
		qs := mixedBatch(rng, ids, n)
		res, err := r.NearestBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			bound := math.Inf(1)
			if q.HasRadius {
				bound = q.RadiusMillis
			}
			if want := bruteNearest(t, oracle, q.From, q.K, q.Exclude, bound); !rankedEqual(res[i], want) {
				t.Fatalf("n=%d query %d: batch %v, oracle %v", n, i, res[i], want)
			}
		}
	}
	waitGoroutines(t, base)
}
