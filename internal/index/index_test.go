package index

import (
	"fmt"
	"math"
	"testing"

	"netcoord/internal/coord"
	"netcoord/internal/xrand"
)

// randomCoord draws a coordinate in a [0, 200)^dim box, with a height in
// [0, 20) on roughly half the points so the height-aware pruning path is
// always exercised.
func randomCoord(rng *xrand.Stream, dim int) coord.Coordinate {
	c := coord.Origin(dim)
	for i := range c.Vec {
		c.Vec[i] = rng.Uniform(0, 200)
	}
	if rng.Bernoulli(0.5) {
		c.Height = rng.Uniform(0, 20)
	}
	return c
}

// treeWithin is the radius query through the one walk: a kNN search
// for every point within r, whose heap can never fill.
func treeWithin(t *testing.T, tree *Tree, q coord.Coordinate, r float64) []Neighbor {
	t.Helper()
	got, err := tree.KNearestBound(q, max(tree.Len(), 1), r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Distance != b[i].Distance {
			return false
		}
	}
	return true
}

// checkAgainstBrute runs the query battery — kNN at several k, kNN under
// a preset bound, radius — from q against both indexes and requires the
// same ids in the same order at the same float64 distances.
func checkAgainstBrute(t *testing.T, tree *Tree, brute *Brute, q coord.Coordinate, label string) {
	t.Helper()
	for _, k := range []int{1, 3, 8, 1000} {
		want, err := brute.KNearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.KNearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !neighborsEqual(got, want) {
			t.Fatalf("%s k=%d: tree %v != brute %v", label, k, got, want)
		}
	}
	// KNearestBound must equal the brute answer restricted to the
	// bound: Within(bound) truncated to k.
	for _, bound := range []float64{10, 60, 300} {
		want, err := brute.Within(q, bound)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) > 8 {
			want = want[:8]
		}
		got, err := tree.KNearestBound(q, 8, bound)
		if err != nil {
			t.Fatal(err)
		}
		if !neighborsEqual(got, want) {
			t.Fatalf("%s bound=%v: tree %v != brute %v", label, bound, got, want)
		}
	}
	for _, r := range []float64{0, 25, 120, 1e9} {
		want, err := brute.Within(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if got := treeWithin(t, tree, q, r); !neighborsEqual(got, want) {
			t.Fatalf("%s r=%v: tree has %d results, brute %d", label, r, len(got), len(want))
		}
	}
}

// TestTreeMatchesBruteRandomWorkload is the oracle property test: in
// every dimension from 1 to 5, a random interleaving of inserts,
// updates, and removals, with kNN and radius queries after every batch,
// must agree exactly — ties included — with the brute-force scan.
func TestTreeMatchesBruteRandomWorkload(t *testing.T) {
	const (
		ops    = 4000
		checks = 40
	)
	for dim := 1; dim <= 5; dim++ {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := xrand.NewStream(seed)
			tree, err := New(dim)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := NewBrute(dim)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < ops; op++ {
				id := fmt.Sprintf("node-%d", rng.Intn(600))
				switch {
				case rng.Bernoulli(0.25) && brute.Len() > 0:
					gotTree := tree.Remove(id)
					gotBrute := brute.Remove(id)
					if gotTree != gotBrute {
						t.Fatalf("dim %d seed %d op %d: Remove(%q) tree=%v brute=%v", dim, seed, op, id, gotTree, gotBrute)
					}
				default:
					c := randomCoord(rng, dim)
					if err := tree.Insert(id, c); err != nil {
						t.Fatalf("dim %d seed %d op %d: tree insert: %v", dim, seed, op, err)
					}
					if err := brute.Insert(id, c); err != nil {
						t.Fatalf("dim %d seed %d op %d: brute insert: %v", dim, seed, op, err)
					}
				}
				if tree.Len() != brute.Len() {
					t.Fatalf("dim %d seed %d op %d: Len tree=%d brute=%d", dim, seed, op, tree.Len(), brute.Len())
				}
				if op%(ops/checks) == 0 {
					checkAgainstBrute(t, tree, brute, randomCoord(rng, dim), fmt.Sprintf("dim %d seed %d op %d", dim, seed, op))
				}
			}
		}
	}
}

func TestTreeBasics(t *testing.T) {
	tree, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Fatalf("empty tree Len = %d", tree.Len())
	}
	got, err := tree.KNearest(coord.New(0, 0, 0), 5)
	if err != nil {
		t.Fatalf("kNN on empty tree: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("kNN on empty tree returned %v", got)
	}

	if err := tree.Insert("a", coord.New(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert("b", coord.New(10, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert("c", coord.New(0, 20, 0)); err != nil {
		t.Fatal(err)
	}
	got, err = tree.KNearest(coord.New(1, 0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("kNN = %v, want a then b", got)
	}

	// Upsert moves a point.
	if err := tree.Insert("a", coord.New(100, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 3 {
		t.Fatalf("Len after upsert = %d, want 3", tree.Len())
	}
	got, err = tree.KNearest(coord.New(1, 0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "b" {
		t.Fatalf("nearest after moving a = %q, want b", got[0].ID)
	}

	if !tree.Remove("b") {
		t.Fatal("Remove(b) = false")
	}
	if tree.Remove("b") {
		t.Fatal("second Remove(b) = true")
	}
	if tree.Len() != 2 {
		t.Fatalf("Len after remove = %d, want 2", tree.Len())
	}
}

// TestTreeHeightModel checks the additive height term: a Euclidean-close
// point with a huge height must lose to a farther flat point.
func TestTreeHeightModel(t *testing.T) {
	tree, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	tall := coord.New(1, 0, 0)
	tall.Height = 500
	if err := tree.Insert("tall", tall); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert("flat", coord.New(50, 0, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := tree.KNearest(coord.New(0, 0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "flat" {
		t.Fatalf("nearest = %q, want flat (height must count)", got[0].ID)
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) succeeded")
	}
	if _, err := New(1 << 16); err == nil {
		t.Fatal("New accepted a dimension a node's axis cannot name")
	}
	tree, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert("x", coord.New(1, 2)); err == nil {
		t.Fatal("wrong-dimension insert succeeded")
	}
	bad := coord.New(1, 2, math.NaN())
	if err := tree.Insert("x", bad); err == nil {
		t.Fatal("NaN insert succeeded")
	}
	if _, err := tree.KNearest(coord.New(1, 2), 1); err == nil {
		t.Fatal("wrong-dimension query succeeded")
	}
	if _, err := tree.KNearest(coord.New(1, 2, 3), 0); err == nil {
		t.Fatal("k=0 query succeeded")
	}
	if _, err := tree.KNearestBound(coord.New(1, 2, 3), 1, math.NaN()); err == nil {
		t.Fatal("NaN bound succeeded")
	}
}

// TestTreeRebuildBoundsShape drives sorted-order insertion — the kd-tree
// worst case — and churn, then checks the rebuild machinery kept the tree
// shallow and reclaimed tombstones.
func TestTreeRebuildBoundsShape(t *testing.T) {
	tree, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	for i := 0; i < n; i++ {
		// Strictly increasing on every axis: unbalanced without rebuilds.
		v := float64(i)
		if err := tree.Insert(fmt.Sprintf("n%04d", i), coord.New(v, v, v)); err != nil {
			t.Fatal(err)
		}
	}
	st := tree.Stats()
	if st.Rebuilds == 0 {
		t.Fatal("no rebuilds after sorted insertion")
	}
	// A balanced tree of 4096 has height 13; the depth trigger caps the
	// degenerate shape at 4*log2(n)+8. Far below the 4096-long chain a
	// plain kd-tree would build here.
	if st.Height > 4*13+8 {
		t.Fatalf("height %d after sorted insertion, want <= %d", st.Height, 4*13+8)
	}
	for i := 0; i < n/2; i++ {
		tree.Remove(fmt.Sprintf("n%04d", i))
	}
	st = tree.Stats()
	if st.Live != n/2 {
		t.Fatalf("live = %d, want %d", st.Live, n/2)
	}
	if st.Tombstones > st.Live/2+1 {
		t.Fatalf("tombstones %d never reclaimed (live %d)", st.Tombstones, st.Live)
	}
}

// TestTreeDeterministic: identical operation sequences must produce
// identical trees and query results regardless of map iteration order.
func TestTreeDeterministic(t *testing.T) {
	run := func() []Neighbor {
		rng := xrand.NewStream(99)
		tree, err := New(3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			id := fmt.Sprintf("node-%d", rng.Intn(500))
			if rng.Bernoulli(0.3) {
				tree.Remove(id)
			} else if err := tree.Insert(id, randomCoord(rng, 3)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := tree.KNearest(coord.New(100, 100, 100), 16)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !neighborsEqual(a, b) {
		t.Fatalf("same workload, different results:\n%v\n%v", a, b)
	}
}

// TestOriginCrowdBuildsNoChain: a flash crowd of fresh Vivaldi nodes —
// 10k inserts of one coordinate, the origin, into a tree of 100k points
// — ties on the split of every crowd node it meets. Ties descend into
// the emptier child, so the crowd grows a balanced subtree: no rebuild
// (sending every tie right made a chain and 165 full rebuilds), a
// shallow tree, and answers equal to Brute's.
func TestOriginCrowdBuildsNoChain(t *testing.T) {
	const dim, n, crowd = 3, 100_000, 10_000
	rng := xrand.NewStream(28)
	entries := make([]Entry, n)
	brute, _ := NewBrute(dim)
	for i := range entries {
		entries[i] = Entry{ID: fmt.Sprintf("node-%06d", i), Coord: randomCoord(rng, dim)}
		_ = brute.Insert(entries[i].ID, entries[i].Coord)
	}
	tree, err := Build(dim, entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crowd; i++ {
		id := fmt.Sprintf("fresh-%05d", i)
		if err := tree.Insert(id, coord.Origin(dim)); err != nil {
			t.Fatal(err)
		}
		_ = brute.Insert(id, coord.Origin(dim))
	}
	st := tree.Stats()
	if st.Rebuilds != 0 {
		t.Fatalf("the crowd caused %d rebuilds, want 0", st.Rebuilds)
	}
	if limit := balancedHeight(n) + balancedHeight(crowd) + 4; st.Height > limit {
		t.Fatalf("height %d after the crowd, want <= %d", st.Height, limit)
	}
	for _, q := range []coord.Coordinate{coord.Origin(dim), coord.New(0, 0, 5), randomCoord(rng, dim)} {
		checkAgainstBrute(t, tree, brute, q, fmt.Sprintf("from %v", q.Vec))
	}
}
