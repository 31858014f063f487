package index

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"netcoord/internal/xrand"
)

// TestRecordsTravelWithTheirPoints stores whole records through Build,
// Put (appends past arena growth, revivals of tombstoned leaves,
// replacements) and Refresh, with Removes and the rebuilds all of it
// sets off, and after every operation reads each record back through
// Lookup and Record and the live set through All: every field of the
// last record stored for an id, nothing for a removed one. A refresh
// keeps the slot's coordinate and so its place in the tree.
func TestRecordsTravelWithTheirPoints(t *testing.T) {
	rng := xrand.NewStream(11)
	at := time.Unix(1_700_000_000, 0)
	record := func(i int) Entry {
		return Entry{ID: fmt.Sprintf("p%03d", rng.Intn(200)), Coord: randomCoord(rng, 3),
			Error: rng.Uniform(0, 1), UpdatedAt: at.Add(time.Duration(i) * time.Second), Seq: uint64(i + 1)}
	}
	want := map[string]Entry{}
	var initial []Entry
	for i := range 100 {
		e := record(i)
		initial = append(initial, e)
		want[e.ID] = e
	}
	tree, err := Build(3, initial)
	if err != nil {
		t.Fatal(err)
	}
	sameRecord := func(a, b Entry) bool {
		return a.ID == b.ID && a.Coord.Equal(b.Coord) && a.Error == b.Error && a.UpdatedAt.Equal(b.UpdatedAt) && a.Seq == b.Seq
	}
	for i := 100; i < 3000; i++ {
		e := record(i)
		switch p := rng.Float64(); {
		case p < 0.5:
			if err := tree.Put(e); err != nil {
				t.Fatal(err)
			}
			want[e.ID] = e
		case p < 0.8:
			slot, ok := tree.Lookup(e.ID)
			if !ok {
				continue
			}
			before := *tree.Record(slot)
			e.Coord = before.Coord.Clone()
			tree.Refresh(slot, e)
			if got := tree.Record(slot); &got.Coord.Vec[0] != &before.Coord.Vec[0] {
				t.Fatalf("op %d: Refresh replaced the stored vector", i)
			}
			want[e.ID] = e
		default:
			_, present := want[e.ID]
			if tree.Remove(e.ID) != present {
				t.Fatalf("op %d: Remove(%s) disagrees with the model", i, e.ID)
			}
			delete(want, e.ID)
		}
		if tree.Len() != len(want) {
			t.Fatalf("op %d: Len = %d, want %d", i, tree.Len(), len(want))
		}
		for id, w := range want {
			slot, ok := tree.Lookup(id)
			if !ok || !sameRecord(*tree.Record(slot), w) {
				t.Fatalf("op %d: record of %s is %+v (found %v), want %+v", i, id, tree.Record(slot), ok, w)
			}
			if c, _ := tree.Point(slot); !c.Equal(w.Coord) {
				t.Fatalf("op %d: Point(%d) = %v, want %v", i, slot, c, w.Coord)
			}
		}
		all := map[string]Entry{}
		for e := range tree.All() {
			all[e.ID] = *e
		}
		if !maps.EqualFunc(all, want, sameRecord) {
			t.Fatalf("op %d: All yields %d records, not the %d stored", i, len(all), len(want))
		}
	}
	if tree.Stats().Rebuilds == 0 {
		t.Fatal("no rebuild ran; the test misses Rebuild's copy of the records")
	}
}
