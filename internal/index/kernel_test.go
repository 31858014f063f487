package index

import (
	"fmt"
	"math"
	"testing"

	"netcoord/internal/bheap"
	"netcoord/internal/coord"
	"netcoord/internal/xrand"
)

// The tests here pin the arena kernel to Brute, always by == on id,
// order and Distance: they cover what the flat layout could get wrong
// that the pointer graph could not — slot bookkeeping across rebuilds,
// runs scanned with tombstones in them, results aliasing arena memory.

// TestDuplicateCoordinatesBreakTiesByID stores many points at exactly
// the same coordinate (and a few more at the same distance through
// their heights), so every answer is decided by the id tie-break alone —
// never by where a point sits in the arena.
func TestDuplicateCoordinatesBreakTiesByID(t *testing.T) {
	tree, _ := New(3)
	brute, _ := NewBrute(3)
	insert := func(id string, c coord.Coordinate) {
		t.Helper()
		if err := tree.Insert(id, c); err != nil {
			t.Fatal(err)
		}
		if err := brute.Insert(id, c); err != nil {
			t.Fatal(err)
		}
	}
	// Descending ids, so arena order is the reverse of the tie-break order.
	for i := 99; i >= 0; i-- {
		insert(fmt.Sprintf("dup-%03d", i), coord.New(10, 20, 30))
	}
	for i := 0; i < 20; i++ {
		// 3 away on one axis with no height, or in place with height 3:
		// both at distance exactly 3 from the duplicates' position.
		c := coord.New(13, 20, 30)
		if i%2 == 0 {
			c = coord.New(10, 20, 30)
			c.Height = 3
		}
		insert(fmt.Sprintf("ring-%02d", i), c)
	}
	for _, q := range []coord.Coordinate{coord.New(10, 20, 30), coord.New(13, 20, 30), coord.New(0, 0, 0)} {
		checkAgainstBrute(t, tree, brute, q, "incremental")
	}
	tree.Rebuild()
	checkAgainstBrute(t, tree, brute, coord.New(10, 20, 30), "rebuilt")
	// Tombstone every other duplicate inside the rebuilt runs.
	for i := 0; i < 100; i += 2 {
		id := fmt.Sprintf("dup-%03d", i)
		if tree.Remove(id) != brute.Remove(id) {
			t.Fatalf("Remove(%q) disagrees", id)
		}
	}
	checkAgainstBrute(t, tree, brute, coord.New(10, 20, 30), "tombstoned")
}

// applyMixOp applies one operation of the write-replicate mix to both
// indexes: mostly same-id moves of at most 20 ms, some fresh inserts,
// some removals, and now and then a forced rebuild.
func applyMixOp(t *testing.T, rng *xrand.Stream, dim int, tree *Tree, brute *Brute, pos map[string]coord.Coordinate, nextID *int) {
	t.Helper()
	pick := func() string {
		// Deterministic choice: ids are dense, skip the removed ones.
		for {
			id := fmt.Sprintf("node-%05d", rng.Intn(*nextID))
			if _, ok := pos[id]; ok {
				return id
			}
		}
	}
	switch p := rng.Uniform(0, 1); {
	case p < 0.90 && len(pos) > 0:
		id := pick()
		c := pos[id].Clone()
		for d := range c.Vec {
			c.Vec[d] += rng.Uniform(-20, 20) / math.Sqrt(float64(dim))
		}
		pos[id] = c
		if err := tree.Insert(id, c); err != nil {
			t.Fatal(err)
		}
		if err := brute.Insert(id, c); err != nil {
			t.Fatal(err)
		}
	case p < 0.95 || len(pos) == 0:
		id := fmt.Sprintf("node-%05d", *nextID)
		*nextID++
		c := randomCoord(rng, dim)
		pos[id] = c
		if err := tree.Insert(id, c); err != nil {
			t.Fatal(err)
		}
		if err := brute.Insert(id, c); err != nil {
			t.Fatal(err)
		}
	case p < 0.995:
		id := pick()
		delete(pos, id)
		if !tree.Remove(id) || !brute.Remove(id) {
			t.Fatalf("Remove(%q) = false for a live id", id)
		}
	default:
		tree.Rebuild()
	}
}

// TestWriteReplicateMixMatchesBrute replays seeded interleavings of the
// benchmark's write mix over a bulk-built tree and checks every 64th
// operation, so moves landing under scanned runs, tombstones inside
// them, and rebuilds at every phase of the arena's life are all seen.
func TestWriteReplicateMixMatchesBrute(t *testing.T) {
	const dim, n, ops = 3, 1500, 6400
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.NewStream(seed)
		entries := make([]Entry, n)
		pos := make(map[string]coord.Coordinate, n)
		brute, _ := NewBrute(dim)
		for i := range entries {
			entries[i] = Entry{ID: fmt.Sprintf("node-%05d", i), Coord: randomCoord(rng, dim)}
			pos[entries[i].ID] = entries[i].Coord
			if err := brute.Insert(entries[i].ID, entries[i].Coord); err != nil {
				t.Fatal(err)
			}
		}
		tree, err := Build(dim, entries)
		if err != nil {
			t.Fatal(err)
		}
		nextID := n
		for op := 1; op <= ops; op++ {
			applyMixOp(t, rng, dim, tree, brute, pos, &nextID)
			if tree.Len() != brute.Len() {
				t.Fatalf("seed %d op %d: Len tree=%d brute=%d", seed, op, tree.Len(), brute.Len())
			}
			if op%64 == 0 {
				checkAgainstBrute(t, tree, brute, randomCoord(rng, dim), fmt.Sprintf("seed %d op %d", seed, op))
			}
		}
		if st := tree.Stats(); st.Live != brute.Len() || st.Rebuilds == 0 {
			t.Fatalf("seed %d: stats %+v, want %d live and some rebuilds", seed, st, brute.Len())
		}
	}
}

// TestFlappingIDReusesItsSlots is write-replicate's probe: one id that
// alternates between two fixed coordinates inside a large bulk-built
// tree. Each move tombstones the leaf the id just left and revives the
// one it left before, so the tree must neither grow a tombstone chain
// nor rebuild, however long the flapping lasts.
func TestFlappingIDReusesItsSlots(t *testing.T) {
	const dim, n, moves = 3, 100_000, 10_000
	rng := xrand.NewStream(23)
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
	built := tree.Stats().Height
	spots := [2]coord.Coordinate{coord.New(60, 70, 80), coord.New(20_000, 20_000, 20_000)}
	for step := 0; step < moves; step++ {
		at := spots[step%2]
		if err := tree.Insert("probe", at); err != nil {
			t.Fatal(err)
		}
		_ = brute.Insert("probe", at)
		if st := tree.Stats(); st.Tombstones > 1 || st.Live != n+1 {
			t.Fatalf("step %d: stats %+v, want at most 1 tombstone and %d live", step, st, n+1)
		}
		if step%64 != 0 {
			continue
		}
		// One oracle scan pair per checkpoint, from each spot in turn
		// and then from somewhere else.
		q := [3]coord.Coordinate{spots[0], spots[1], randomCoord(rng, dim)}[step/64%3]
		want, _ := brute.KNearest(q, 8)
		got, err := tree.KNearest(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !neighborsEqual(got, want) {
			t.Fatalf("step %d from %v: tree %v != brute %v", step, q, got, want)
		}
		wantR, _ := brute.Within(q, 12)
		if gotR := treeWithin(t, tree, q, 12); !neighborsEqual(gotR, wantR) {
			t.Fatalf("step %d within 12 of %v: tree %v != brute %v", step, q, gotR, wantR)
		}
	}
	if st := tree.Stats(); st.Rebuilds != 0 || st.Height > built+2 {
		t.Fatalf("after %d moves: stats %+v, want no rebuilds and height <= %d", moves, st, built+2)
	}
}

// TestRevivalCases pins the places a revived leaf could go wrong: inside
// a run that searches scan rather than descend, an id landing back on
// the slot it just left, a revival that must lower an ancestor's
// minHeight, and a result handed out before the slot changed hands.
func TestRevivalCases(t *testing.T) {
	const dim = 1
	at := func(x, h float64) coord.Coordinate { return coord.Coordinate{Vec: []float64{x}, Height: h} }
	// 15 points on a line: one build lays them out as a single run of
	// 15 slots, scanned outright, with p00, p02, ... p14 as its leaves.
	build := func() (*Tree, *Brute) {
		entries := make([]Entry, 15)
		brute, _ := NewBrute(dim)
		for i := range entries {
			entries[i] = Entry{ID: fmt.Sprintf("p%02d", i), Coord: at(float64(10*i), 5)}
			_ = brute.Insert(entries[i].ID, entries[i].Coord)
		}
		tree, err := Build(dim, entries)
		if err != nil {
			t.Fatal(err)
		}
		return tree, brute
	}
	check := func(tree *Tree, brute *Brute, label string) {
		t.Helper()
		for _, x := range []float64{-5, 0, 11, 70, 145} {
			checkAgainstBrute(t, tree, brute, at(x, 0), label)
		}
	}
	slots := func(tree *Tree) int { return len(tree.nodes) }

	t.Run("inside a scanned run", func(t *testing.T) {
		tree, brute := build()
		if tree.nodes[0].run != 15 {
			t.Fatalf("root run = %d, want the whole tree as one run", tree.nodes[0].run)
		}
		tree.Remove("p00")
		brute.Remove("p00")
		check(tree, brute, "tombstoned")
		// A new id whose descent ends on p00's dead leaf takes it over.
		if err := tree.Insert("fresh", at(1, 5)); err != nil {
			t.Fatal(err)
		}
		_ = brute.Insert("fresh", at(1, 5))
		if st := tree.Stats(); slots(tree) != 15 || st.Tombstones != 0 || tree.nodes[0].run != 15 {
			t.Fatalf("revival grew the arena or broke the run: %d slots, stats %+v, run %d", slots(tree), st, tree.nodes[0].run)
		}
		check(tree, brute, "revived")
	})

	t.Run("own slot on a small move", func(t *testing.T) {
		tree, brute := build()
		for step := 0; step < 200; step++ {
			c := at(float64(step%7)/10, 5) // stays left of p01
			if err := tree.Insert("p00", c); err != nil {
				t.Fatal(err)
			}
			_ = brute.Insert("p00", c)
		}
		if st := tree.Stats(); slots(tree) != 15 || st.Tombstones != 0 || st.Rebuilds != 0 {
			t.Fatalf("small moves did not reuse the slot: %d slots, stats %+v", slots(tree), st)
		}
		check(tree, brute, "moved in place")
	})

	t.Run("lowers an ancestor's minHeight", func(t *testing.T) {
		// 63 points, descended rather than scanned, all so high up that
		// a point without height on the far side of the root's plane is
		// the nearest — which the search only finds if the revival
		// lowered minHeight on the way up.
		entries := make([]Entry, 63)
		brute, _ := NewBrute(dim)
		for i := range entries {
			entries[i] = Entry{ID: fmt.Sprintf("p%02d", i), Coord: at(float64(10*i), 5000)}
			_ = brute.Insert(entries[i].ID, entries[i].Coord)
		}
		tree, err := Build(dim, entries)
		if err != nil {
			t.Fatal(err)
		}
		tree.Remove("p62")
		brute.Remove("p62")
		if err := tree.Insert("low", at(621, 0)); err != nil {
			t.Fatal(err)
		}
		_ = brute.Insert("low", at(621, 0))
		if slots(tree) != 63 || tree.nodes[0].minHeight != 0 {
			t.Fatalf("%d slots, root minHeight %v: want the leaf revived and 0 at the root", slots(tree), tree.nodes[0].minHeight)
		}
		got, _ := tree.KNearest(at(-1000, 0), 1)
		if len(got) != 1 || got[0].ID != "low" {
			t.Fatalf("nearest = %v, want the revived low point", got)
		}
		checkAgainstBrute(t, tree, brute, at(-1000, 0), "low point revived")
	})

	t.Run("earlier results keep their coordinate", func(t *testing.T) {
		tree, _ := build()
		before, _ := tree.KNearest(at(0, 0), 1)
		if len(before) != 1 || before[0].ID != "p00" {
			t.Fatalf("nearest = %v, want p00", before)
		}
		held, _ := tree.Point(before[0].Slot)
		was := held.Clone()
		tree.Remove("p00")
		if err := tree.Insert("fresh", at(3, 1)); err != nil {
			t.Fatal(err)
		}
		if slots(tree) != 15 {
			t.Fatalf("%d slots: the insert did not revive p00's leaf", slots(tree))
		}
		if before[0].ID != "p00" || !held.Equal(was) {
			t.Fatalf("a result handed out earlier changed to %v at %v, was %v", before[0], held, was)
		}
		if now, _ := tree.Point(before[0].Slot); !now.Equal(at(3, 1)) {
			t.Fatalf("the revived slot holds %v, want fresh's coordinate", now)
		}
	})
}

// TestBoundAtStoredDistanceKeepsTheTie presets the bound to exactly the
// distance of a stored point: <= must keep that point, and every other
// point at the same distance, on every path — descended nodes, scanned
// runs, and a heap that arrives full.
func TestBoundAtStoredDistanceKeepsTheTie(t *testing.T) {
	const dim = 3
	rng := xrand.NewStream(5)
	entries := make([]Entry, 400)
	brute, _ := NewBrute(dim)
	for i := range entries {
		entries[i] = Entry{ID: fmt.Sprintf("node-%03d", i), Coord: randomCoord(rng, dim)}
		_ = brute.Insert(entries[i].ID, entries[i].Coord)
	}
	built, err := Build(dim, entries)
	if err != nil {
		t.Fatal(err)
	}
	grown, _ := New(dim)
	for _, e := range entries {
		if err := grown.Insert(e.ID, e.Coord); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 50; trial++ {
		q := randomCoord(rng, dim)
		all, _ := brute.KNearest(q, len(entries))
		target := all[rng.Intn(40)]
		want, _ := brute.Within(q, target.Distance)
		if want[len(want)-1].Distance != target.Distance {
			t.Fatalf("oracle lost the target %v", target)
		}
		for name, tree := range map[string]*Tree{"built": built, "grown": grown} {
			got, err := tree.KNearestBound(q, len(entries), target.Distance)
			if err != nil {
				t.Fatal(err)
			}
			if !neighborsEqual(got, want) {
				t.Fatalf("trial %d %s: bound %v kept %d, want %d", trial, name, target.Distance, len(got), len(want))
			}
			// The same bound carried by a full heap instead of the Bound:
			// k placeholders at the target's distance whose ids sort after
			// every real id, so the k real points must displace them all.
			k := len(want)
			h := bheap.New(k, NeighborBefore)
			for i := 0; i < k; i++ {
				h.Offer(Neighbor{ID: fmt.Sprintf("~%03d", i), Distance: target.Distance})
			}
			var b Bound
			b.Reset(math.Inf(1))
			if err := tree.KNearestInto(q, k, h, &b); err != nil {
				t.Fatal(err)
			}
			res := append([]Neighbor(nil), h.Items()...)
			SortNeighbors(res)
			if !neighborsEqual(res, want) {
				t.Fatalf("trial %d %s: full heap kept %v, want %v", trial, name, res, want)
			}
		}
	}
}

// TestSixteenTreesSharingOneBound is the shape ncload's traced ladder
// searches: 16 trees back to back with one heap and one Bound must
// equal one tree over the union, and Brute.
func TestSixteenTreesSharingOneBound(t *testing.T) {
	const dim, shards, n = 3, 16, 4000
	rng := xrand.NewStream(11)
	parts := make([][]Entry, shards)
	var all []Entry
	brute, _ := NewBrute(dim)
	for i := 0; i < n; i++ {
		e := Entry{ID: fmt.Sprintf("node-%05d", i), Coord: randomCoord(rng, dim)}
		parts[i%shards] = append(parts[i%shards], e)
		all = append(all, e)
		_ = brute.Insert(e.ID, e.Coord)
	}
	trees := make([]*Tree, shards)
	for i := range trees {
		var err error
		if trees[i], err = Build(dim, parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := Build(dim, all)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		q := randomCoord(rng, dim)
		k := 1 + rng.Intn(16)
		want, _ := brute.KNearest(q, k)
		one, _ := whole.KNearest(q, k)
		h := bheap.New(k, NeighborBefore)
		var b Bound
		b.Reset(math.Inf(1))
		for _, tr := range trees {
			if err := tr.KNearestInto(q, k, h, &b); err != nil {
				t.Fatal(err)
			}
		}
		got := append([]Neighbor(nil), h.Items()...)
		SortNeighbors(got)
		if !neighborsEqual(got, want) || !neighborsEqual(one, want) {
			t.Fatalf("trial %d k=%d: 16 trees %v, one tree %v, brute %v", trial, k, got, one, want)
		}
	}
}

// TestResultsDoNotAliasTheArena takes results and resolves their slots
// to coordinates, then rewrites the arena under them every way it can
// be rewritten — moves, removals, appends that reallocate it, rebuilds
// that compact it — and requires the results, coordinates included, to
// be what they were.
func TestResultsDoNotAliasTheArena(t *testing.T) {
	const dim = 3
	rng := xrand.NewStream(3)
	entries := make([]Entry, 300)
	for i := range entries {
		entries[i] = Entry{ID: fmt.Sprintf("node-%03d", i), Coord: randomCoord(rng, dim)}
	}
	tree, err := Build(dim, entries)
	if err != nil {
		t.Fatal(err)
	}
	q := coord.New(100, 100, 100)
	knn, _ := tree.KNearest(q, 20)
	within := treeWithin(t, tree, q, 90)
	type frozen struct {
		id   string
		c    coord.Coordinate
		dist float64
	}
	var before []frozen
	var held []coord.Coordinate
	for _, n := range append(append([]Neighbor(nil), knn...), within...) {
		c, _ := tree.Point(n.Slot)
		held = append(held, c)
		before = append(before, frozen{n.ID, c.Clone(), n.Distance})
	}
	for round := 0; round < 4; round++ {
		for _, e := range entries {
			switch rng.Intn(3) {
			case 0:
				tree.Remove(e.ID)
			default:
				if err := tree.Insert(e.ID, randomCoord(rng, dim)); err != nil {
					t.Fatal(err)
				}
			}
		}
		tree.Rebuild()
	}
	for i, n := range append(append([]Neighbor(nil), knn...), within...) {
		if n.ID != before[i].id || n.Distance != before[i].dist || !held[i].Equal(before[i].c) {
			t.Fatalf("result %d changed under later mutations: %v at %v, was %v", i, n, held[i], before[i])
		}
	}
}

// TestSearchesDoNotAllocate: with a caller-owned heap or a buffer grown
// to the working size, neither walk allocates — not for its state, not
// for its bound.
func TestSearchesDoNotAllocate(t *testing.T) {
	rng := xrand.NewStream(9)
	entries := make([]Entry, 5000)
	for i := range entries {
		entries[i] = Entry{ID: fmt.Sprintf("node-%04d", i), Coord: randomCoord(rng, 3)}
	}
	tree, err := Build(3, entries)
	if err != nil {
		t.Fatal(err)
	}
	q := coord.New(100, 100, 100)
	all := bheap.New(len(entries), NeighborBefore)
	h := bheap.New(8, NeighborBefore)
	var b Bound
	if n := testing.AllocsPerRun(50, func() {
		all.Reset(len(entries))
		b.Reset(60)
		_ = tree.KNearestInto(q, len(entries), all, &b)
		h.Reset(8)
		b.Reset(math.Inf(1))
		_ = tree.KNearestInto(q, 8, h, &b)
	}); n != 0 {
		t.Fatalf("a radius plus a kNN search made %v allocations, want 0", n)
	}
	if all.Len() == 0 || h.Len() != 8 {
		t.Fatalf("searches found %d in radius and %d nearest", all.Len(), h.Len())
	}
}

// TestBuildDuplicateIDsEqualsInserts: Build over a sequence with
// repeated ids is last-wins, exactly the tree the same sequence of
// Inserts answers like.
func TestBuildDuplicateIDsEqualsInserts(t *testing.T) {
	const dim = 2
	rng := xrand.NewStream(17)
	var entries []Entry
	inc, _ := New(dim)
	brute, _ := NewBrute(dim)
	for i := 0; i < 2000; i++ {
		e := Entry{ID: fmt.Sprintf("node-%03d", rng.Intn(300)), Coord: randomCoord(rng, dim)}
		entries = append(entries, e)
		if err := inc.Insert(e.ID, e.Coord); err != nil {
			t.Fatal(err)
		}
		_ = brute.Insert(e.ID, e.Coord)
	}
	built, err := Build(dim, entries)
	if err != nil {
		t.Fatal(err)
	}
	if built.Len() != brute.Len() || inc.Len() != brute.Len() {
		t.Fatalf("Len built=%d inserted=%d brute=%d", built.Len(), inc.Len(), brute.Len())
	}
	if st := built.Stats(); st.Tombstones != 0 || st.Rebuilds != 0 || st.Height != balancedHeight(built.Len()) {
		t.Fatalf("built stats %+v: want no tombstones, no rebuilds, balanced height", st)
	}
	for trial := 0; trial < 30; trial++ {
		q := randomCoord(rng, dim)
		checkAgainstBrute(t, built, brute, q, "built")
		checkAgainstBrute(t, inc, brute, q, "inserted")
	}
}

// TestPlaneBoundSurvivesUnderflow: a point whose axis offset squares to
// zero is at computed distance 0, so the plane in front of it must not
// be given a bound above 0 — math.Abs(delta) would be, and would prune
// the winner of an id tie.
func TestPlaneBoundSurvivesUnderflow(t *testing.T) {
	tree, _ := New(1)
	brute, _ := NewBrute(1)
	for id, x := range map[string]float64{"b": 1e-200, "a": -1e-200} {
		_ = brute.Insert(id, coord.New(x))
	}
	// b first, so a hangs beyond b's plane and the pair is descended,
	// not scanned as a run.
	_ = tree.Insert("b", coord.New(1e-200))
	_ = tree.Insert("a", coord.New(-1e-200))
	q := coord.New(2e-200)
	want, _ := brute.KNearest(q, 1)
	got, _ := tree.KNearest(q, 1)
	if !neighborsEqual(got, want) || got[0].ID != "a" || got[0].Distance != 0 {
		t.Fatalf("nearest = %v, want %v", got, want)
	}
}

// FuzzTreeOps decodes an operation stream from the fuzzer's bytes —
// insert, move, remove, rebuild, query — applies it to a Tree and to
// Brute, and compares every query. Coordinates come from a coarse grid
// so duplicates and distance ties are the common case.
func FuzzTreeOps(f *testing.F) {
	// testdata/fuzz/FuzzTreeOps holds the longer seeds: a rebuild with
	// tombstones landing inside scanned runs, all-duplicate points, the
	// move-heavy write mix, draining to empty and refilling, ids
	// flapping between two spots so that dead leaves keep being revived,
	// and a crowd at the origin, every insert of which ties on the
	// splits it meets.
	f.Add([]byte{2, 0, 1, 10, 20, 3, 0, 2, 10, 20, 3, 4, 10, 20, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := 1 + int(data[0])%4
		data = data[1:]
		tree, _ := New(dim)
		brute, _ := NewBrute(dim)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		point := func() coord.Coordinate {
			c := coord.Origin(dim)
			for d := range c.Vec {
				c.Vec[d] = float64(next()%16) * 12.5
			}
			c.Height = float64(next()%4) * 2.5
			return c
		}
		for step := 0; len(data) > 0 && step < 4096; step++ {
			switch op := next(); op % 8 {
			case 0, 1, 2, 3:
				id := fmt.Sprintf("n%d", next()%64)
				c := point()
				if err := tree.Insert(id, c); err != nil {
					t.Fatal(err)
				}
				_ = brute.Insert(id, c)
			case 4:
				id := fmt.Sprintf("n%d", next()%64)
				if got, want := tree.Remove(id), brute.Remove(id); got != want {
					t.Fatalf("step %d: Remove(%q) = %v, want %v", step, id, got, want)
				}
			case 5:
				tree.Rebuild()
			default:
				q := point()
				k := 1 + int(next()%12)
				want, _ := brute.KNearest(q, k)
				got, err := tree.KNearest(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !neighborsEqual(got, want) {
					t.Fatalf("step %d k=%d from %v: tree %v != brute %v", step, k, q, got, want)
				}
				r := float64(next()) / 2
				wantR, _ := brute.Within(q, r)
				if gotR := treeWithin(t, tree, q, r); !neighborsEqual(gotR, wantR) {
					t.Fatalf("step %d r=%v from %v: tree %v != brute %v", step, r, q, gotR, wantR)
				}
			}
			if tree.Len() != brute.Len() {
				t.Fatalf("step %d: Len tree=%d brute=%d", step, tree.Len(), brute.Len())
			}
		}
	})
}
