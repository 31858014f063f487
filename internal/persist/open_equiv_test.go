package persist

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"netcoord/internal/wire"
)

// replayRef is the reference recovery: every snapshot entry and every
// WAL record applied, in order, to a map — last write wins, a removal
// deletes — and the map's values sorted by id at the end. It is the
// algorithm Open used before it started merging a touched-ids map into
// the snapshot slice, kept here so the merge has something to equal.
type replayRef struct {
	state     map[string]Entry
	lastSeq   uint64
	lastEpoch uint64
	tombs     []Tombstone
}

func newReplayRef() *replayRef { return &replayRef{state: make(map[string]Entry)} }

func (r *replayRef) snapshot(c Capture) {
	for _, e := range c.Entries {
		r.state[e.ID] = e
	}
	r.lastSeq, r.lastEpoch = c.Seq, c.Epoch
	r.tombs = append(r.tombs, c.Tombstones...)
}

func (r *replayRef) record(ev wire.Event) {
	r.lastSeq = max(r.lastSeq, ev.Seq)
	r.lastEpoch = max(r.lastEpoch, ev.Epoch)
	switch ev.Op {
	case wire.OpUpsert:
		e := ev.Entry
		e.Seq = ev.Seq // a record's entry carries the record's sequence
		r.state[e.ID] = e
	case wire.OpRemove:
		delete(r.state, ev.ID)
		r.tombs = append(r.tombs, Tombstone{Seq: ev.Seq, ID: ev.ID})
	case wire.OpEvict:
		for _, id := range ev.IDs {
			delete(r.state, id)
			r.tombs = append(r.tombs, Tombstone{Seq: ev.Seq, ID: id})
		}
	}
}

func (r *replayRef) entries() []Entry {
	out := make([]Entry, 0, len(r.state))
	for _, e := range r.state {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *replayRef) tombstones() []Tombstone {
	sort.Slice(r.tombs, func(i, j int) bool {
		if r.tombs[i].Seq != r.tombs[j].Seq {
			return r.tombs[i].Seq < r.tombs[j].Seq
		}
		return r.tombs[i].ID < r.tombs[j].ID
	})
	var out []Tombstone
	for i, t := range r.tombs {
		if i == 0 || t != r.tombs[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// requireRecovered compares what Open returned and recorded with the
// reference, every field of every entry included.
func requireRecovered(t *testing.T, s *Store, rec Capture, ref *replayRef) {
	t.Helper()
	want := ref.entries()
	got := rec.Entries
	entriesEqual(t, got, want)
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("entry %q: seq %d, want %d", want[i].ID, got[i].Seq, want[i].Seq)
		}
	}
	stats := s.Recovery()
	if stats.Entries != len(want) || stats.LastSeq != ref.lastSeq || stats.LastEpoch != ref.lastEpoch {
		t.Fatalf("recovery says %d entries, seq %d, epoch %d; want %d, %d, %d",
			stats.Entries, stats.LastSeq, stats.LastEpoch, len(want), ref.lastSeq, ref.lastEpoch)
	}
	if rec.Seq != ref.lastSeq || rec.Epoch != ref.lastEpoch {
		t.Fatalf("recovered capture at seq %d, epoch %d; want %d, %d", rec.Seq, rec.Epoch, ref.lastSeq, ref.lastEpoch)
	}
	tombs := rec.Tombstones
	wantTombs := ref.tombstones()
	if len(tombs) != len(wantTombs) {
		t.Fatalf("recovered %d tombstones, want %d\n got: %v\nwant: %v", len(tombs), len(wantTombs), tombs, wantTombs)
	}
	for i := range wantTombs {
		if tombs[i] != wantTombs[i] {
			t.Fatalf("tombstone %d: got %v, want %v", i, tombs[i], wantTombs[i])
		}
	}
}

// TestOpenEqualsMapReplay builds data directories from seeded random
// histories and requires Open to recover exactly what the map replay
// does. Across the seeds the histories cover moves of snapshot ids,
// removals, evictions, re-upserts of removed ids, ids the snapshot
// never held (which force the sort), removals of ids that are nowhere,
// an empty tail, and no snapshot at all.
func TestOpenEqualsMapReplay(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, _ := mustOpen(t, dir)
			ref := newReplayRef()
			seq, epoch := uint64(0), uint64(1+rng.Intn(2))
			pool := 20 + rng.Intn(200) // ids the history draws from
			id := func() string { return fmt.Sprintf("n%04d", rng.Intn(pool)) }
			entry := func(id string) Entry {
				e := testEntry(id, float64(rng.Intn(1000)), rng.Int63n(1<<40))
				e.Seq = seq
				return e
			}

			withSnapshot := seed%5 != 0
			if withSnapshot {
				// The live set a registry would have held, captured the
				// way Registry.Snapshot hands it over: sorted by id.
				live := make(map[string]Entry)
				var tombs []Tombstone
				for i, n := 0, rng.Intn(3*pool); i < n; i++ {
					seq++
					if rng.Intn(4) == 0 {
						gone := id()
						delete(live, gone)
						tombs = append(tombs, Tombstone{Seq: seq, ID: gone})
					} else {
						e := entry(id())
						live[e.ID] = e
					}
				}
				c := Capture{Seq: seq, Epoch: epoch, TombstoneFloor: uint64(rng.Intn(3)), Tombstones: tombs}
				for _, e := range live {
					c.Entries = append(c.Entries, e)
				}
				sort.Slice(c.Entries, func(i, j int) bool { return c.Entries[i].ID < c.Entries[j].ID })
				if err := s.Compact("manual", func() (Capture, error) { return c, nil }); err != nil {
					t.Fatalf("Compact: %v", err)
				}
				ref.snapshot(c)
			}

			tail := 0
			if seed%7 != 0 {
				tail = rng.Intn(4 * pool)
			}
			if rng.Intn(3) == 0 {
				epoch++ // a promotion between the snapshot and the tail
			}
			for i := 0; i < tail; i++ {
				seq++
				ev := wire.Event{Seq: seq, Epoch: epoch}
				switch k := rng.Intn(10); {
				case k < 6: // a move, a re-upsert of a removed id, or a new id
					ev.Op, ev.Entry = wire.OpUpsert, entry(id())
					if rng.Intn(8) == 0 {
						ev.Entry.ID = fmt.Sprintf("late-%d", rng.Intn(pool))
					}
				case k < 8: // present or not
					ev.Op, ev.ID = wire.OpRemove, id()
				default:
					ev.Op = wire.OpEvict
					for j, n := 0, 1+rng.Intn(5); j < n; j++ {
						ev.IDs = append(ev.IDs, id())
					}
				}
				logEvent(s, ev)
				ref.record(ev)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s2, got := mustRecover(t, dir)
			defer s2.Close()
			requireRecovered(t, s2, got, ref)
			if rec := s2.Recovery(); rec.WALRecords != tail || (rec.SnapshotGen != 0) != withSnapshot {
				t.Fatalf("recovery replayed %d records over snapshot gen %d; want %d records, snapshot %v",
					rec.WALRecords, rec.SnapshotGen, tail, withSnapshot)
			}
		})
	}
}

// TestOpenNormalisesUnsortedSnapshot hands Open a snapshot no
// compaction writes — ids out of order and repeated — with a tail over
// it: the last entry of each id wins, as a map load in file order would
// have it, and the result is sorted.
func TestOpenNormalisesUnsortedSnapshot(t *testing.T) {
	dir := t.TempDir()
	c := Capture{Seq: 9, Epoch: 1, Entries: []Entry{
		testEntry("m", 1, 10),
		testEntry("c", 2, 20),
		testEntry("x", 3, 30),
		testEntry("c", 4, 40), // repeats c: this one is kept
		testEntry("a", 5, 50),
		testEntry("m", 6, 60), // repeats m: this one is kept
		testEntry("x", 7, 70), // repeats x, then the tail removes it
	}}
	if err := writeSnapshot(dir, 1, c); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	ref := newReplayRef()
	ref.snapshot(c)

	s, got := mustOpen(t, dir)
	entriesEqual(t, got, []Entry{testEntry("a", 5, 50), testEntry("c", 4, 40), testEntry("m", 6, 60), testEntry("x", 7, 70)})
	for _, ev := range []wire.Event{
		{Op: wire.OpRemove, ID: "x", Seq: 10, Epoch: 1},
		{Op: wire.OpUpsert, Entry: testEntry("b", 8, 80), Seq: 11, Epoch: 1},
	} {
		logEvent(s, ev)
		ref.record(ev)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := mustRecover(t, dir)
	defer s2.Close()
	entriesEqual(t, rec.Entries, []Entry{testEntry("a", 5, 50), testEntry("b", 8, 80), testEntry("c", 4, 40), testEntry("m", 6, 60)})
	requireRecovered(t, s2, rec, ref)
}
