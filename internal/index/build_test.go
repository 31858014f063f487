package index

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"netcoord/internal/coord"
	"netcoord/internal/xrand"
)

// TestBuildMatchesIncrementalInserts: a bulk-built tree must answer
// every query exactly like an incrementally built one (which in turn is
// oracle-tested against brute force), ties included.
func TestBuildMatchesIncrementalInserts(t *testing.T) {
	const n = 500
	const dim = 3
	rng := xrand.NewStream(41)
	entries := make([]Entry, 0, n)
	inc, err := New(dim)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%03d", i)
		c := randomCoord(rng, dim)
		entries = append(entries, Entry{ID: id, Coord: c})
		if err := inc.Insert(id, c); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	built, err := Build(dim, entries)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if built.Len() != inc.Len() {
		t.Fatalf("Len = %d, want %d", built.Len(), inc.Len())
	}
	for q := 0; q < 50; q++ {
		from := randomCoord(rng, dim)
		for _, k := range []int{1, 4, 17} {
			a, err := built.KNearest(from, k)
			if err != nil {
				t.Fatalf("built KNearest: %v", err)
			}
			b, err := inc.KNearest(from, k)
			if err != nil {
				t.Fatalf("incremental KNearest: %v", err)
			}
			if !neighborsEqual(a, b) {
				t.Fatalf("query %d k=%d: built %v != incremental %v", q, k, a, b)
			}
		}
		if ra, rb := treeWithin(t, built, from, 80), treeWithin(t, inc, from, 80); !neighborsEqual(ra, rb) {
			t.Fatalf("query %d radius: built != incremental", q)
		}
	}
	// The bulk build must be balanced: its height is the rebuild height.
	if got, want := built.Stats().Height, balancedHeight(built.Len()); got != want {
		t.Fatalf("built height = %d, want balanced %d", got, want)
	}
	// And mutable afterwards like any tree.
	if err := built.Insert("late", randomCoord(rng, dim)); err != nil {
		t.Fatalf("Insert after Build: %v", err)
	}
	if !built.Remove("node-000") {
		t.Fatal("Remove after Build failed")
	}
}

func TestBuildEdgeCases(t *testing.T) {
	// Empty input: a valid empty tree.
	tr, err := Build(3, nil)
	if err != nil {
		t.Fatalf("Build(nil): %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("empty build Len = %d", tr.Len())
	}
	if err := tr.Insert("a", coord.New(1, 2, 3)); err != nil {
		t.Fatalf("Insert into empty-built tree: %v", err)
	}

	// Duplicate IDs: last wins, matching repeated Insert.
	dup, err := Build(3, []Entry{
		{ID: "x", Coord: coord.New(1, 1, 1)},
		{ID: "y", Coord: coord.New(9, 9, 9)},
		{ID: "x", Coord: coord.New(2, 2, 2)},
	})
	if err != nil {
		t.Fatalf("Build duplicates: %v", err)
	}
	if dup.Len() != 2 {
		t.Fatalf("duplicate build Len = %d, want 2", dup.Len())
	}
	res, err := dup.KNearest(coord.New(2, 2, 2), 1)
	if err != nil {
		t.Fatalf("KNearest: %v", err)
	}
	if len(res) != 1 || res[0].ID != "x" || res[0].Distance != 0 {
		t.Fatalf("duplicate resolution: got %v, want x at distance 0", res)
	}

	// Invalid coordinate anywhere rejects the whole batch.
	if _, err := Build(3, []Entry{
		{ID: "ok", Coord: coord.New(1, 2, 3)},
		{ID: "bad", Coord: coord.New(1, 2)},
	}); err == nil {
		t.Fatal("dimension-mismatched entry accepted")
	}

	if _, err := Build(0, nil); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

// benchEntries generates n random entries once per benchmark.
// TestBuildIsOneArenaAtAnyGOMAXPROCS: place forks the top of a large
// tree across goroutines when there is a second processor, and the
// arena must not depend on it — the same nodes, vectors, ids and id map
// from Build at GOMAXPROCS 1 and 2, and from a Rebuild at 2. The
// clustered set puts every median inside a run of equal coordinates
// that only the id orders.
func TestBuildIsOneArenaAtAnyGOMAXPROCS(t *testing.T) {
	rng := xrand.NewStream(9)
	clustered := make([]Entry, 5000) // above forkMin, so it does fork
	for i := range clustered {
		c := coord.New(float64(rng.Intn(5))*10, float64(rng.Intn(4))*10, float64(rng.Intn(2))*10)
		c.Height = float64(rng.Intn(3))
		clustered[i] = Entry{ID: fmt.Sprintf("node-%04d", i), Coord: c}
	}
	for name, entries := range map[string][]Entry{"100k": benchEntries(100_000), "5k clustered": clustered} {
		build := func(procs int) *Tree {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr, err := Build(3, entries)
			if err != nil {
				t.Fatalf("%s: Build: %v", name, err)
			}
			return tr
		}
		one, two := build(1), build(2)
		same := func(what string) {
			t.Helper()
			if !slices.Equal(one.nodes, two.nodes) || !slices.Equal(one.vecs, two.vecs) || !slices.Equal(one.ids, two.ids) {
				t.Errorf("%s: %s at GOMAXPROCS 2 differs from Build at GOMAXPROCS 1", name, what)
			}
			if len(two.byID) != len(entries) {
				t.Errorf("%s: %s left %d ids in the map, want %d", name, what, len(two.byID), len(entries))
			}
			for i, id := range two.ids {
				if two.byID[id] != int32(i) {
					t.Fatalf("%s: %s maps %q to slot %d, want %d", name, what, id, two.byID[id], i)
				}
			}
		}
		same("Build")
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			two.Rebuild()
		}()
		same("Rebuild")
	}
}

func benchEntries(n int) []Entry {
	rng := xrand.NewStream(7)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{ID: fmt.Sprintf("node-%06d", i), Coord: randomCoord(rng, 3)}
	}
	return entries
}

// BenchmarkBuild100k vs BenchmarkIncrementalInsert100k quantifies the
// bulk-load win on the registry warm-up path (ROADMAP "Index bulk-load
// API" item): sort-once balanced construction against one-by-one inserts
// with their amortized rebuild cascade.
func BenchmarkBuild100k(b *testing.B) {
	entries := benchEntries(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Build(3, entries)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != len(entries) {
			b.Fatal("short build")
		}
	}
}

func BenchmarkIncrementalInsert100k(b *testing.B) {
	entries := benchEntries(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := New(3)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			if err := tr.Insert(e.ID, e.Coord); err != nil {
				b.Fatal(err)
			}
		}
		if tr.Len() != len(entries) {
			b.Fatal("short build")
		}
	}
}
