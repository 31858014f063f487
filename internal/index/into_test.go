package index

import (
	"fmt"
	"math"
	"testing"

	"netcoord/internal/bheap"
	"netcoord/internal/xrand"
)

// TestBoundOnlyTightens: a Bound ends at the minimum it was offered,
// and an offer above it changes nothing.
func TestBoundOnlyTightens(t *testing.T) {
	var b Bound
	b.Reset(math.Inf(1))
	rng := xrand.NewStream(1)
	min := math.Inf(1)
	for i := 0; i < 2000; i++ {
		v := rng.Uniform(0, 1000)
		b.Tighten(v)
		if v < min {
			min = v
		}
		b.Tighten(v + 1)
		if got := b.Load(); got != min {
			t.Fatalf("offer %d: Bound = %v, want %v", i, got, min)
		}
	}
}

// TestKNearestIntoSharedBoundMatchesMerge splits one point set across
// several trees, searches them back to back through KNearestInto with
// one heap and one Bound, and requires the top-k to be bit-identical to
// a single tree over the whole set.
func TestKNearestIntoSharedBoundMatchesMerge(t *testing.T) {
	const dim = 3
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.NewStream(seed)
		nTrees := 1 + rng.Intn(6)
		trees := make([]*Tree, nTrees)
		for i := range trees {
			trees[i], _ = New(dim)
		}
		whole, _ := New(dim)
		nPts := 50 + rng.Intn(400)
		for p := 0; p < nPts; p++ {
			id := fmt.Sprintf("node-%04d", p)
			c := randomCoord(rng, dim)
			if rng.Bernoulli(0.3) {
				// Snap to a small grid so duplicate distances are common
				// and tie-breaking by id is genuinely exercised.
				for d := range c.Vec {
					c.Vec[d] = float64(int(c.Vec[d]) / 40 * 40)
				}
				c.Height = 0
			}
			if err := whole.Insert(id, c); err != nil {
				t.Fatal(err)
			}
			if err := trees[p%nTrees].Insert(id, c); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 30; trial++ {
			q := randomCoord(rng, dim)
			k := 1 + rng.Intn(12)
			startBound := math.Inf(1)
			if rng.Bernoulli(0.3) {
				startBound = rng.Uniform(0, 250)
			}
			want, err := whole.KNearestBound(q, k, startBound)
			if err != nil {
				t.Fatal(err)
			}

			// Sequential walk: one heap carried across trees, bound
			// tightening as it goes.
			var b Bound
			b.Reset(startBound)
			h := bheap.New(k, NeighborBefore)
			for _, tr := range trees {
				if err := tr.KNearestInto(q, k, h, &b); err != nil {
					t.Fatal(err)
				}
			}
			got := append([]Neighbor(nil), h.Items()...)
			SortNeighbors(got)
			if !neighborsEqual(got, want) {
				t.Fatalf("seed %d trial %d: sequential merge %v != whole %v", seed, trial, got, want)
			}
		}
	}
}

// TestRadiusWalkAcrossTrees: a radius query is a kNN walk whose heap
// never fills. Searching several trees back to back into one such heap
// under one Bound at the radius, and sorting once, must equal the
// whole-set radius query and the brute-force scan.
func TestRadiusWalkAcrossTrees(t *testing.T) {
	const dim = 3
	rng := xrand.NewStream(7)
	trees := make([]*Tree, 4)
	for i := range trees {
		trees[i], _ = New(dim)
	}
	whole, _ := New(dim)
	brute, _ := NewBrute(dim)
	for p := 0; p < 300; p++ {
		id := fmt.Sprintf("node-%04d", p)
		c := randomCoord(rng, dim)
		if err := whole.Insert(id, c); err != nil {
			t.Fatal(err)
		}
		if err := brute.Insert(id, c); err != nil {
			t.Fatal(err)
		}
		if err := trees[p%len(trees)].Insert(id, c); err != nil {
			t.Fatal(err)
		}
	}
	h := bheap.New(whole.Len(), NeighborBefore)
	var b Bound
	for trial := 0; trial < 20; trial++ {
		q := randomCoord(rng, dim)
		radius := rng.Uniform(0, 200)
		want, err := brute.Within(q, radius)
		if err != nil {
			t.Fatal(err)
		}
		if got := treeWithin(t, whole, q, radius); !neighborsEqual(got, want) {
			t.Fatalf("trial %d r=%v: whole tree %d results, brute %d", trial, radius, len(got), len(want))
		}
		h.Reset(whole.Len())
		b.Reset(radius)
		for _, tr := range trees {
			if err := tr.KNearestInto(q, whole.Len(), h, &b); err != nil {
				t.Fatal(err)
			}
		}
		got := h.Items()
		SortNeighbors(got)
		if !neighborsEqual(got, want) {
			t.Fatalf("trial %d r=%v: merged %d results, brute %d", trial, radius, len(got), len(want))
		}
		if b.Load() != radius {
			t.Fatalf("trial %d: bound moved from %v to %v under a heap that never fills", trial, radius, b.Load())
		}
	}
}
