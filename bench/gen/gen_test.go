package gen

import (
	"bytes"
	"strings"
	"testing"

	"netcoord"
)

// requestStream renders everything a seed sends: the populate bodies,
// query bodies and the write schedule.
func requestStream(seed uint64) []byte {
	entries := Entries(seed, 500)
	out := AppendUpsertBatch(nil, entries)
	q := NewQueries(seed)
	for i := 0; i < 50; i++ {
		out = AppendNearest(out, q.Next())
	}
	batch := make([]netcoord.Coordinate, BatchSize)
	for i := range batch {
		batch[i] = q.Next()
	}
	out = AppendNearestBatch(out, batch)
	w := NewWrites(seed, entries)
	for i := 0; i < 300; i++ {
		out = AppendEntry(out, w.Next().Entry)
	}
	return out
}

func TestSameSeedSameRequestStream(t *testing.T) {
	a, b := requestStream(7), requestStream(7)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations of seed 7 differ")
	}
	if bytes.Equal(a, requestStream(8)) {
		t.Fatal("seeds 7 and 8 generate the same stream")
	}
}

func TestWriteScheduleShape(t *testing.T) {
	entries := Entries(3, 200)
	w := NewWrites(3, entries)
	var kinds [3]int
	wantIn := true
	for i := 0; i < 1000; i++ {
		before := append([]netcoord.RegistryEntry(nil), w.Entries...)
		op := w.Next()
		kinds[op.Kind]++
		switch op.Kind {
		case Probe:
			if (i+1)%10 != 0 {
				t.Fatalf("op %d is a probe; probes close each cycle of 10", i)
			}
			if op.In != wantIn {
				t.Fatalf("probe %d lands in=%v, want alternation", i, op.In)
			}
			wantIn = !wantIn
			if op.In && Distance(op.Entry.Coord, w.Watch) != 0 {
				t.Fatalf("probe-in is %v ms from the watch point", Distance(op.Entry.Coord, w.Watch))
			}
		case Heartbeat:
			if !strings.HasPrefix(op.Entry.ID, "node-") {
				t.Fatalf("heartbeat of %q", op.Entry.ID)
			}
			for _, e := range before {
				if e.ID == op.Entry.ID && !e.Coord.Equal(op.Entry.Coord) {
					t.Fatalf("heartbeat of %s changed its coordinate", e.ID)
				}
			}
		case Move:
			for _, e := range before {
				if e.ID != op.Entry.ID {
					continue
				}
				moved := Distance(e.Coord, op.Entry.Coord) - 2*e.Coord.Height
				if moved <= 0 || moved > maxMoveMillis {
					t.Fatalf("move of %s by %v ms, want (0, %v]", e.ID, moved, maxMoveMillis)
				}
			}
		}
	}
	if kinds[Probe] != 100 || kinds[Move] == 0 || kinds[Heartbeat] < 5*kinds[Move] {
		t.Fatalf("kinds heartbeat/move/probe = %v", kinds)
	}
	if got := len(w.Entries); got != len(entries)+1 {
		t.Fatalf("schedule holds %d entries, want the %d generated plus the probe", got, len(entries))
	}
}

func TestBuildRecoverDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := Entries(5, 300)
	want, seq, err := BuildRecoverDir(dir, 5, entries, 100)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{Dir: dir, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	rec := pr.Recovery()
	if rec.SnapshotEntries != len(entries) || rec.WALRecords != 100 || rec.LastSeq != seq {
		t.Fatalf("recovered snapshot=%d wal=%d seq=%d, want %d/100/%d", rec.SnapshotEntries, rec.WALRecords, rec.LastSeq, len(entries), seq)
	}
	got, _ := pr.SnapshotWithSeq()
	snap := Snapshot{Seq: seq}
	for _, e := range got {
		snap.Entries = append(snap.Entries, SnapshotEntry{ID: e.ID, Coord: e.Coord})
	}
	if err := CheckContent(snap, want); err != nil {
		t.Fatal(err)
	}
}
