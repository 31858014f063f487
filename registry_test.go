package netcoord

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"netcoord/internal/xrand"
)

func testCoord(rng *xrand.Stream, dim int) Coordinate {
	c := Origin(dim)
	for i := range c.Vec {
		c.Vec[i] = rng.Uniform(0, 200)
	}
	if rng.Bernoulli(0.5) {
		c.Height = rng.Uniform(0, 20)
	}
	return c
}

func newTestRegistry(t *testing.T, cfg RegistryConfig) *Registry {
	t.Helper()
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRegistryBasics(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})

	if err := r.Upsert("a", c3(0, 0, 0), 0.2); err != nil {
		t.Fatal(err)
	}
	if err := r.Upsert("b", c3(30, 0, 0), 0.3); err != nil {
		t.Fatal(err)
	}
	if err := r.Upsert("c", c3(0, 40, 0), 0.4); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}

	e, ok := r.Get("b")
	if !ok || e.Error != 0.3 || e.UpdatedAt.IsZero() {
		t.Fatalf("Get(b) = %+v, %v", e, ok)
	}

	got, err := r.Nearest(c3(1, 0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("Nearest = %v, want a then b", got)
	}

	got, err = r.NearestTo("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "b" {
		t.Fatalf("NearestTo(a) = %v, want b", got)
	}
	if _, err := r.NearestTo("nope", 1); err == nil {
		t.Fatal("NearestTo on unknown id succeeded")
	}

	within, err := r.Within(c3(0, 0, 0), 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(within) != 2 || within[0].ID != "a" || within[1].ID != "b" {
		t.Fatalf("Within(35) = %v, want a, b", within)
	}

	limited, err := r.Query(NearestQuery{From: c3(0, 0, 0), K: 1, HasRadius: true, RadiusMillis: 35}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 || limited[0].ID != "a" {
		t.Fatalf("Query(radius 35, k 1) = %v, want just a", limited)
	}
	for _, tc := range []struct {
		q    NearestQuery
		want string
	}{
		{NearestQuery{From: c3(0, 0, 0), K: 5, HasRadius: true, RadiusMillis: -1}, "netcoord: registry within: radius -1, want >= 0"},
		{NearestQuery{From: c3(0, 0, 0), K: 5, HasRadius: true, RadiusMillis: math.NaN()}, "netcoord: registry within: radius NaN, want >= 0"},
		{NearestQuery{From: c3(0, 0, 0), K: 0}, "netcoord: k = 0, want > 0"},
	} {
		if _, err := r.Query(tc.q, nil); err == nil || err.Error() != tc.want {
			t.Fatalf("Query(%+v) error %v, want %q", tc.q, err, tc.want)
		}
	}

	d, err := r.Estimate("a", "b")
	if err != nil || d != 30 {
		t.Fatalf("Estimate(a,b) = %v, %v, want 30", d, err)
	}
	if _, err := r.Estimate("a", "nope"); err == nil {
		t.Fatal("Estimate with unknown id succeeded")
	}

	if !r.Remove("b") {
		t.Fatal("Remove(b) = false")
	}
	if r.Remove("b") {
		t.Fatal("second Remove(b) = true")
	}
	if r.Len() != 2 {
		t.Fatalf("Len after remove = %d", r.Len())
	}

	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != "a" || snap[1].ID != "c" {
		t.Fatalf("Snapshot = %v", snap)
	}

	st := r.Stats()
	if st.Entries != 2 || st.Upserts != 3 || st.Removes != 1 || st.Queries != 4 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})
	if err := r.Upsert("", c3(0, 0, 0), 0); err == nil {
		t.Fatal("empty id succeeded")
	}
	if err := r.Upsert("x", Origin(2), 0); err == nil {
		t.Fatal("wrong-dimension upsert succeeded")
	}
	if _, err := r.Nearest(Origin(2), 1); err == nil {
		t.Fatal("wrong-dimension query succeeded")
	}
	if _, err := r.Nearest(Origin(3), 0); err == nil {
		t.Fatal("k=0 succeeded")
	}
	if _, err := NewRegistry(RegistryConfig{TTL: -time.Second}); err == nil {
		t.Fatal("negative TTL succeeded")
	}
}

// TestRegistryNearestMatchesOracle is the acceptance property test: on
// random workloads the index-backed Nearest must agree exactly
// with the brute-force Nearest over a snapshot of the same entries.
func TestRegistryNearestMatchesOracle(t *testing.T) {
	rng := xrand.NewStream(7)
	r := newTestRegistry(t, RegistryConfig{})
	live := make(map[string]Coordinate)
	for op := 0; op < 3000; op++ {
		id := fmt.Sprintf("node-%d", rng.Intn(400))
		if rng.Bernoulli(0.25) && len(live) > 0 {
			delete(live, id)
			r.Remove(id)
		} else {
			c := testCoord(rng, 3)
			live[id] = c
			if err := r.Upsert(id, c, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if op%100 != 0 || len(live) == 0 {
			continue
		}
		cands := make([]Candidate, 0, len(live))
		for id, c := range live {
			cands = append(cands, Candidate{ID: id, Coord: c})
		}
		q := testCoord(rng, 3)
		for _, k := range []int{1, 8, 1000} {
			want, err := Nearest(q, cands, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Nearest(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d k=%d: got %d results, want %d", op, k, len(got), len(want))
			}
			for i := range got {
				// Equal-distance ties may legitimately order differently
				// between the two implementations; distances must match
				// exactly, and ids must match except across exact ties.
				if got[i].EstimatedRTT != want[i].EstimatedRTT {
					t.Fatalf("op %d k=%d rank %d: rtt %v != oracle %v", op, k, i, got[i].EstimatedRTT, want[i].EstimatedRTT)
				}
				if got[i].ID != want[i].ID && !sameDistanceTie(want, got[i].EstimatedRTT, got[i].ID) {
					t.Fatalf("op %d k=%d rank %d: id %q != oracle %q", op, k, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// sameDistanceTie reports whether the oracle result set contains the
// given id at exactly the given distance (an acceptable tie reordering).
func sameDistanceTie(oracle []Ranked, rtt float64, id string) bool {
	for _, o := range oracle {
		if o.ID == id && o.EstimatedRTT == rtt {
			return true
		}
	}
	return false
}

// TestRegistryConcurrentStress hammers Upsert/Remove/Nearest/Within from
// many goroutines; run with -race this is the registry's
// thread-safety proof. Invariants are checked after the dust settles.
func TestRegistryConcurrentStress(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})
	const (
		writers = 4
		readers = 4
		ops     = 2000
		idSpace = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewStream(seed)
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("node-%d", rng.Intn(idSpace))
				switch {
				case rng.Bernoulli(0.2):
					r.Remove(id)
				case rng.Bernoulli(0.1):
					batch := make([]RegistryEntry, 4)
					for j := range batch {
						batch[j] = RegistryEntry{
							ID:    fmt.Sprintf("node-%d", rng.Intn(idSpace)),
							Coord: testCoord(rng, 3),
						}
					}
					if err := r.UpsertBatch(batch); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := r.Upsert(id, testCoord(rng, 3), rng.Float64()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewStream(seed)
			for i := 0; i < ops; i++ {
				q := testCoord(rng, 3)
				if rng.Bernoulli(0.5) {
					res, err := r.Nearest(q, 1+rng.Intn(8))
					if err != nil {
						t.Error(err)
						return
					}
					for j := 1; j < len(res); j++ {
						if res[j].EstimatedRTT < res[j-1].EstimatedRTT {
							t.Errorf("Nearest results out of order: %v", res)
							return
						}
					}
				} else {
					if _, err := r.Within(q, rng.Uniform(0, 100)); err != nil {
						t.Error(err)
						return
					}
				}
				r.Len()
				r.Stats()
				r.Get(fmt.Sprintf("node-%d", rng.Intn(idSpace)))
			}
		}(uint64(100 + rd))
	}
	wg.Wait()

	// Post-stress invariant: every surviving entry is findable via
	// Nearest with a large k, and counts agree.
	snap := r.Snapshot()
	if len(snap) != r.Len() {
		t.Fatalf("Snapshot %d entries, Len %d", len(snap), r.Len())
	}
	if len(snap) == 0 {
		t.Fatal("stress left an empty registry; workload bug")
	}
	all, err := r.Nearest(Origin(3), len(snap)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(snap) {
		t.Fatalf("Nearest(all) returned %d, want %d", len(all), len(snap))
	}
}

func TestRegistryTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	r, err := NewRegistry(RegistryConfig{
		// A TTL long enough that the janitor (every TTL/2 of wall time)
		// never ticks: this test drives EvictStale directly.
		TTL:   time.Hour,
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.Upsert("old", c3(1, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(48 * time.Minute)
	mu.Unlock()
	if err := r.Upsert("fresh", c3(2, 0, 0), 0); err != nil {
		t.Fatal(err)
	}

	if n := r.EvictStale(); n != 0 {
		t.Fatalf("EvictStale before expiry = %d, want 0", n)
	}
	mu.Lock()
	now = now.Add(18 * time.Minute) // "old" is now 66m stale, "fresh" 18m
	mu.Unlock()
	if n := r.EvictStale(); n != 1 {
		t.Fatalf("EvictStale = %d, want 1", n)
	}
	if _, ok := r.Get("old"); ok {
		t.Fatal("old survived eviction")
	}
	if _, ok := r.Get("fresh"); !ok {
		t.Fatal("fresh was evicted")
	}
	// The index must agree with the map after eviction.
	got, err := r.Nearest(c3(0, 0, 0), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "fresh" {
		t.Fatalf("Nearest after eviction = %v", got)
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("Stats.Evictions = %d, want 1", st.Evictions)
	}
}

// TestEvictStaleSparesEntryRefreshedAfterScan: eviction scans under the
// read lock and deletes under the write lock, so a heartbeat can land in
// between. The refreshed entry must survive, and no evict event may
// name it.
func TestEvictStaleSparesEntryRefreshedAfterScan(t *testing.T) {
	now := time.Unix(1000, 0)
	r := newTestRegistry(t, RegistryConfig{
		TTL:                time.Hour, // the janitor never ticks: eviction is driven step by step below
		ChangeStreamBuffer: 16,
		Clock:              func() time.Time { return now },
	})
	for _, id := range []string{"gone", "refreshed"} {
		if err := r.Upsert(id, c3(1, 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(66 * time.Minute)
	cutoff := now.Add(-time.Hour)
	stale := r.idsWhere(func(e RegistryEntry) bool { return e.UpdatedAt.Before(cutoff) })
	if len(stale) != 2 {
		t.Fatalf("scan found %v, want both entries", stale)
	}
	if err := r.Upsert("refreshed", c3(1, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if n := r.evictIfStale(stale, cutoff); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, ok := r.Get("refreshed"); !ok {
		t.Fatal("an entry heart-beaten after the scan was evicted")
	}
	if _, ok := r.Get("gone"); ok {
		t.Fatal("the stale entry survived")
	}
	got, err := r.Nearest(c3(0, 0, 0), 10)
	if err != nil || len(got) != 1 || got[0].ID != "refreshed" {
		t.Fatalf("Nearest after eviction = %v, %v", got, err)
	}
	evs, err := r.ChangesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []string
	for _, ev := range evs {
		if ev.Op == ChangeEvict {
			evicted = append(evicted, ev.IDs...)
		}
	}
	if len(evicted) != 1 || evicted[0] != "gone" {
		t.Fatalf("evict events name %v, want just gone", evicted)
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("Stats.Evictions = %d, want 1", st.Evictions)
	}
}

// TestRegistryFeed wires an update channel into the registry the way a
// live Node's Updates channel would be.
func TestRegistryFeed(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})
	ch := make(chan NodeUpdate, 4)
	stop := r.Feed("replica-1", ch)
	defer stop()

	ch <- NodeUpdate{Coord: c3(5, 0, 0), At: time.Unix(1, 0), Error: 0.4}
	deadline := time.After(5 * time.Second)
	for {
		if e, ok := r.Get("replica-1"); ok {
			if e.Error != 0.4 {
				t.Fatalf("feed entry error = %v, want 0.4", e.Error)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("feed never upserted the update")
		case <-time.After(time.Millisecond):
		}
	}

	// An invalid update must not kill the feed, only count as an error.
	ch <- NodeUpdate{Coord: Origin(2)}
	ch <- NodeUpdate{Coord: c3(9, 0, 0)}
	for {
		if e, _ := r.Get("replica-1"); e.Coord.Vec[0] == 9 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("feed did not survive an invalid update")
		case <-time.After(time.Millisecond):
		}
	}
	if st := r.Stats(); st.FeedErrors != 1 {
		t.Fatalf("FeedErrors = %d, want 1", st.FeedErrors)
	}

	// Closing the channel ends the feed; Close must not hang.
	close(ch)
}

// TestRegistryRefreshDoesNotChurnIndex: a TTL-heartbeat workload
// re-upserting unchanged coordinates must not tombstone/reinsert in the
// spatial index — a pure refresh is a metadata write.
func TestRegistryRefreshDoesNotChurnIndex(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{})
	for i := 0; i < 50; i++ {
		if err := r.Upsert("a", c3(1, 2, 3), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	batch := []RegistryEntry{{ID: "a", Coord: c3(1, 2, 3), Error: 0.2}}
	for i := 0; i < 50; i++ {
		if err := r.UpsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.IndexTombstones != 0 || st.IndexRebuilds != 0 {
		t.Fatalf("refreshes churned the index: %+v", st)
	}
	if st.Upserts != 100 {
		t.Fatalf("Upserts = %d, want 100", st.Upserts)
	}
	// The refresh still updates metadata.
	if e, _ := r.Get("a"); e.Error != 0.2 {
		t.Fatalf("Error after refresh = %v, want 0.2", e.Error)
	}
	// And a genuinely moved coordinate still reindexes.
	if err := r.Upsert("a", c3(9, 9, 9), 0.3); err != nil {
		t.Fatal(err)
	}
	got, err := r.Nearest(c3(9, 9, 9), 1)
	if err != nil || len(got) != 1 || got[0].EstimatedRTT != 0 {
		t.Fatalf("Nearest after move = %v, %v", got, err)
	}
}

// TestRegistryFeedAfterClose: Feed on a closed registry must be a
// no-op, and concurrent Feed/Close must not trip the WaitGroup.
func TestRegistryFeedAfterClose(t *testing.T) {
	r, err := NewRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch := make(chan NodeUpdate)
			stop := r.Feed(fmt.Sprintf("n%d", i), ch)
			stop()
		}(i)
	}
	r.Close()
	wg.Wait()

	ch := make(chan NodeUpdate, 1)
	ch <- NodeUpdate{Coord: c3(1, 2, 3)}
	stop := r.Feed("late", ch)
	stop()
	time.Sleep(10 * time.Millisecond)
	if _, ok := r.Get("late"); ok {
		t.Fatal("Feed after Close upserted an entry")
	}
}

func TestUpsertBatchBulkBuildsEmptyRegistry(t *testing.T) {
	// A batch into a fresh registry takes the bulk-build path (one
	// balanced construction); the result must be queryable
	// exactly like incremental upserts, including in-batch duplicates
	// resolving last-wins, and later batches must extend it
	// incrementally without losing anything.
	r, err := NewRegistry(RegistryConfig{Dimension: 3})
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer r.Close()
	batch := make([]RegistryEntry, 0, 101)
	for i := 0; i < 100; i++ {
		batch = append(batch, RegistryEntry{
			ID:    fmt.Sprintf("n%02d", i),
			Coord: c3(float64(i), float64((i*7)%50), float64((i*13)%50)),
		})
	}
	// Duplicate of n00 later in the batch: the final position must win.
	batch = append(batch, RegistryEntry{ID: "n00", Coord: c3(500, 500, 500)})
	if err := r.UpsertBatch(batch); err != nil {
		t.Fatalf("UpsertBatch: %v", err)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	got, ok := r.Get("n00")
	if !ok || !got.Coord.Equal(c3(500, 500, 500)) {
		t.Fatalf("duplicate resolution: got %+v", got)
	}
	near, err := r.Nearest(c3(500, 500, 500), 1)
	if err != nil {
		t.Fatalf("Nearest: %v", err)
	}
	if len(near) != 1 || near[0].ID != "n00" {
		t.Fatalf("Nearest after bulk build = %v, want n00", near)
	}
	// Second batch lands on a warm index: incremental path.
	if err := r.UpsertBatch([]RegistryEntry{{ID: "late", Coord: c3(1, 1, 1)}}); err != nil {
		t.Fatalf("second UpsertBatch: %v", err)
	}
	if r.Len() != 101 {
		t.Fatalf("Len after second batch = %d, want 101", r.Len())
	}
	near, err = r.Nearest(c3(1, 1, 1), 1)
	if err != nil {
		t.Fatalf("Nearest: %v", err)
	}
	if len(near) != 1 || near[0].ID != "late" {
		t.Fatalf("Nearest after incremental batch = %v, want late", near)
	}
}
