package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netcoord/internal/changefeed"
	"netcoord/internal/coord"
	"netcoord/internal/wire"
)

// testOptions makes tests deterministic: no timer flushes, so records
// become durable only through explicit Sync or Close calls.
func testOptions() Options {
	return Options{FlushInterval: time.Hour}
}

func testEntry(id string, x float64, at int64) Entry {
	return Entry{
		ID:        id,
		Coord:     coord.New(x, 2*x, -x),
		Error:     0.25,
		UpdatedAt: time.Unix(0, at),
	}
}

func entriesEqual(t *testing.T, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || !g.Coord.Equal(w.Coord) || g.Error != w.Error || !g.UpdatedAt.Equal(w.UpdatedAt) {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, w)
		}
	}
}

// The log API takes the change-stream sequence of each mutation; most
// store tests do not care about specific values, only that sequences
// are monotonic, so a shared counter stands in for the feed.
var testSeqCounter atomic.Uint64

func logUpsert(s *Store, e Entry) { s.LogUpsert(e, testSeqCounter.Add(1), 1) }
func logRemove(s *Store, id string) {
	logEvent(s, wire.Event{Op: wire.OpRemove, ID: id, Seq: testSeqCounter.Add(1), Epoch: 1})
}
func logEvict(s *Store, ids []string) {
	logEvent(s, wire.Event{Op: wire.OpEvict, IDs: ids, Seq: testSeqCounter.Add(1), Epoch: 1})
}

// logEvent appends ev the way the registry's tap does: the event's own
// frame bytes, encoded once by wire.
func logEvent(s *Store, ev wire.Event) {
	if _, err := ev.Encode(nil); err != nil {
		panic(err)
	}
	s.Append(ev.Frame())
}

func mustOpen(t *testing.T, dir string) (*Store, []Entry) {
	t.Helper()
	s, rec := mustRecover(t, dir)
	return s, rec.Entries
}

func mustRecover(t *testing.T, dir string) (*Store, Capture) {
	t.Helper()
	s, rec, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, entries := mustOpen(t, dir)
	if len(entries) != 0 {
		t.Fatalf("fresh dir recovered %d entries", len(entries))
	}
	logUpsert(s, testEntry("a", 1, 100))
	logUpsert(s, testEntry("b", 2, 200))
	logUpsert(s, testEntry("a", 3, 300)) // refresh: last write wins
	logUpsert(s, testEntry("c", 4, 400))
	logRemove(s, "b")
	logEvict(s, []string{"c"})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	entriesEqual(t, recovered, []Entry{testEntry("a", 3, 300)})
	rec := s2.Recovery()
	if rec.WALRecords != 6 {
		t.Fatalf("replayed %d records, want 6", rec.WALRecords)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("torn bytes = %d on a cleanly closed log", rec.TornBytes)
	}
}

func TestStoreCompactionAndRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	for i := 0; i < 50; i++ {
		logUpsert(s, testEntry(fmt.Sprintf("n%03d", i), float64(i), int64(i+1)))
	}
	// Compact with the captured state; then keep mutating into the new
	// generation.
	state := make([]Entry, 0, 50)
	for i := 0; i < 50; i++ {
		state = append(state, testEntry(fmt.Sprintf("n%03d", i), float64(i), int64(i+1)))
	}
	if err := s.Compact("manual", func() (Capture, error) {
		return Capture{Entries: state, Seq: testSeqCounter.Load(), Epoch: 1}, nil
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	logRemove(s, "n000")
	logUpsert(s, testEntry("n001", 99, 999))
	logUpsert(s, testEntry("new", 7, 777))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Old generations are gone.
	snaps, wals, err := scanDir(dir)
	if err != nil {
		t.Fatalf("scanDir: %v", err)
	}
	if len(snaps) != 1 || len(wals) != 1 || snaps[0] != wals[0] {
		t.Fatalf("dir not compacted to one generation: snaps %v wals %v", snaps, wals)
	}

	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	want := []Entry{testEntry("n001", 99, 999)}
	for i := 2; i < 50; i++ {
		want = append(want, testEntry(fmt.Sprintf("n%03d", i), float64(i), int64(i+1)))
	}
	want = append(want, testEntry("new", 7, 777))
	entriesEqual(t, recovered, want)
	rec := s2.Recovery()
	if rec.SnapshotEntries != 50 {
		t.Fatalf("snapshot entries = %d, want 50", rec.SnapshotEntries)
	}
	if rec.WALRecords != 3 {
		t.Fatalf("WAL tail records = %d, want 3", rec.WALRecords)
	}
}

func TestStoreCrashWithoutClose(t *testing.T) {
	// Sync makes records durable; a crash image taken without Close
	// (copying the dir while the store is live, since the directory
	// lock forbids a second opener) must lose nothing that was synced.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("a", 1, 100))
	logUpsert(s, testEntry("b", 2, 200))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	image := t.TempDir()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", de.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(image, de.Name()), data, 0o644); err != nil {
			t.Fatalf("write %s: %v", de.Name(), err)
		}
	}
	s2, recovered := mustOpen(t, image)
	defer s2.Close()
	entriesEqual(t, recovered, []Entry{testEntry("a", 1, 100), testEntry("b", 2, 200)})
	_ = s.Close()
}

func TestOpenLocksDirectory(t *testing.T) {
	// Two live stores on one directory would interleave WAL frames and
	// sever the log at the first mixed record; Open must refuse instead.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	if _, _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("second store on a locked directory accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, _ := mustOpen(t, dir) // lock released with the store
	s2.Close()
}

func TestStaleTempSnapshotsSwept(t *testing.T) {
	// A crash between CreateTemp and rename leaks snap-*.tmp; Open
	// sweeps them so each crash does not permanently leak a full
	// snapshot's worth of disk.
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap-12345678.tmp")
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	s, _ := mustOpen(t, dir)
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp snapshot not swept (stat err %v)", err)
	}
}

func TestRecoveryTruncatedTailEveryOffset(t *testing.T) {
	// Property: for EVERY byte-truncation of the WAL, recovery succeeds
	// and yields exactly the records whose frames fit completely within
	// the truncated prefix — a crash can tear the tail at any byte.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	var boundaries []int64 // valid-prefix sizes after each record
	var wantAt []map[string]Entry
	state := map[string]Entry{}
	snapState := func() map[string]Entry {
		c := make(map[string]Entry, len(state))
		for k, v := range state {
			c[k] = v
		}
		return c
	}
	boundariesAppend := func() {
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		fi, err := os.Stat(walPath(dir, 1))
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		boundaries = append(boundaries, fi.Size())
		wantAt = append(wantAt, snapState())
	}
	boundariesAppend() // empty log
	for i := 0; i < 8; i++ {
		e := testEntry(fmt.Sprintf("id%d", i), float64(i), int64(1000+i))
		logUpsert(s, e)
		state[e.ID] = e
		boundariesAppend()
		if i%3 == 2 {
			victim := fmt.Sprintf("id%d", i-1)
			logRemove(s, victim)
			delete(state, victim)
			boundariesAppend()
		}
	}
	logEvict(s, []string{"id0", "id7"})
	delete(state, "id0")
	delete(state, "id7")
	boundariesAppend()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	full, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		// The expected state is the one at the largest record boundary
		// <= cut.
		wantIdx := -1
		for i, b := range boundaries {
			if b <= cut {
				wantIdx = i
			}
		}
		want := map[string]Entry{}
		if wantIdx >= 0 {
			want = wantAt[wantIdx]
		}

		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, "wal-0000000000000001.ncl"), full[:cut], 0o644); err != nil {
			t.Fatalf("write truncated wal: %v", err)
		}
		s2, recovered, err := Open(tdir, testOptions())
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(recovered.Entries) != len(want) {
			t.Fatalf("cut %d: recovered %d entries, want %d", cut, len(recovered.Entries), len(want))
		}
		for _, e := range recovered.Entries {
			w, ok := want[e.ID]
			if !ok || !e.Coord.Equal(w.Coord) || !e.UpdatedAt.Equal(w.UpdatedAt) {
				t.Fatalf("cut %d: entry %+v not in expected state", cut, e)
			}
		}
		// The store must also be appendable after tail truncation: the
		// torn suffix is discarded, new records extend the valid prefix.
		logUpsert(s2, testEntry("post-crash", 42, 4242))
		if err := s2.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		s3, again, err := Open(tdir, testOptions())
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		found := false
		for _, e := range again.Entries {
			if e.ID == "post-crash" {
				found = true
			}
		}
		if !found {
			t.Fatalf("cut %d: record appended after tail truncation was lost", cut)
		}
		s3.Close()
	}
}

func TestRecoveryCorruptMidRecordChecksum(t *testing.T) {
	// A flipped bit inside a complete record is media damage, not a
	// crash tail: replay stops cleanly at the bad record, everything
	// before it survives, the damaged file is quarantined aside with a
	// .corrupt suffix, and the valid prefix is rewritten in place so the
	// next restart replays clean.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("a", 1, 100))
	logUpsert(s, testEntry("b", 2, 200))
	logUpsert(s, testEntry("c", 3, 300))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := walPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Corrupt a byte near the end (inside record "c").
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	s2, recovered := mustOpen(t, dir)
	entriesEqual(t, recovered, []Entry{testEntry("a", 1, 100), testEntry("b", 2, 200)})
	rec := s2.Recovery()
	if rec.QuarantinedWALs != 1 {
		t.Fatalf("QuarantinedWALs = %d, want 1", rec.QuarantinedWALs)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("quarantined damage double-reported as %d torn bytes", rec.TornBytes)
	}
	if qerr := s2.QuarantineErr(); !errors.Is(qerr, ErrCorruptRecord) {
		t.Fatalf("QuarantineErr = %v, want ErrCorruptRecord", qerr)
	}
	// The damaged original is preserved for forensics...
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// ...and the store stays appendable: new records extend the clean
	// prefix, and a further restart replays with no damage reported.
	logUpsert(s2, testEntry("d", 4, 400))
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3, again := mustOpen(t, dir)
	defer s3.Close()
	entriesEqual(t, again, []Entry{
		testEntry("a", 1, 100), testEntry("b", 2, 200), testEntry("d", 4, 400),
	})
	if rec := s3.Recovery(); rec.QuarantinedWALs != 0 || rec.TornBytes != 0 {
		t.Fatalf("second restart still reports damage: %+v", rec)
	}
}

func TestRecoveryOnlyCorruptSnapshotRefusesToOpen(t *testing.T) {
	// When the sole snapshot fails verification, the older generations
	// that could back a fallback are already deleted: opening anyway
	// would present the last WAL generation alone as a successful warm
	// restart. That silent near-total data loss must be a hard error.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("a", 1, 100))
	if err := s.Compact("manual", func() (Capture, error) {
		return Capture{Entries: []Entry{testEntry("a", 1, 100)}, Seq: testSeqCounter.Load(), Epoch: 1}, nil
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	logUpsert(s, testEntry("b", 2, 200))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the snapshot body.
	path := snapPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)-6] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if _, _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("open succeeded with only a corrupt snapshot on disk")
	}
	// The operator escape hatch: deleting the corrupt snapshot accepts
	// starting from the WAL alone.
	if err := os.Remove(path); err != nil {
		t.Fatalf("remove: %v", err)
	}
	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	entriesEqual(t, recovered, []Entry{testEntry("b", 2, 200)})
}

func TestRecoveryCorruptSnapshotFallsBackAGeneration(t *testing.T) {
	// When an older snapshot generation is still on disk (compaction
	// crashed before cleanup), a corrupt newest snapshot falls back to
	// it and the surviving WAL generations reconstruct the full state.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("a", 1, 100))
	logUpsert(s, testEntry("b", 2, 200))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Manufacture the crash-mid-compaction layout: snap-1 (valid),
	// wal-1 (a, b), snap-2 (will be corrupted), wal-2 (c).
	if err := writeSnapshot(dir, 1, Capture{}); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	if err := writeSnapshot(dir, 2, Capture{Seq: 2, Entries: []Entry{testEntry("a", 1, 100), testEntry("b", 2, 200)}}); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	f, err := createWAL(dir, 2)
	if err != nil {
		t.Fatalf("createWAL: %v", err)
	}
	payload, err := wire.AppendEntryFrame(nil, &Entry{ID: "c", Coord: coord.New(3, 6, -3), Error: 0.25, UpdatedAt: time.Unix(0, 300)})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		t.Fatalf("write: %v", err)
	}
	f.Close()
	// Corrupt snap-2.
	path := snapPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)-6] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	rec := s2.Recovery()
	if rec.CorruptSnapshots != 1 || rec.SnapshotGen != 1 {
		t.Fatalf("fallback not taken: %+v", rec)
	}
	entriesEqual(t, recovered, []Entry{
		testEntry("a", 1, 100), testEntry("b", 2, 200), testEntry("c", 3, 300),
	})
}

func TestCrashBetweenRotateAndSnapshot(t *testing.T) {
	// Compaction rotates the WAL before writing the snapshot. A crash
	// in that window leaves snap-1 absent, wal-1 and wal-2 present:
	// recovery must replay both generations in order.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("a", 1, 100))
	logUpsert(s, testEntry("b", 2, 200))
	err := s.Compact("manual", func() (Capture, error) {
		return Capture{}, fmt.Errorf("simulated crash before snapshot write")
	})
	if err == nil {
		t.Fatal("Compact swallowed the capture failure")
	}
	// Post-"crash" mutations land in the new generation.
	logRemove(s, "a")
	logUpsert(s, testEntry("c", 3, 300))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, wals, err := scanDir(dir)
	if err != nil {
		t.Fatalf("scanDir: %v", err)
	}
	if len(wals) != 2 {
		t.Fatalf("wal generations = %v, want two", wals)
	}
	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	entriesEqual(t, recovered, []Entry{testEntry("b", 2, 200), testEntry("c", 3, 300)})
}

func TestStoreFlushBatchKicksEarly(t *testing.T) {
	// Once flushBatch records are pending, they become durable without
	// any explicit Sync and long before the (1h) flush interval.
	dir := t.TempDir()
	s, _, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < flushBatch; i++ {
		logUpsert(s, testEntry(fmt.Sprintf("n%d", i), float64(i), int64(i+1)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Stats().Flushes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never committed despite batch threshold")
		}
		time.Sleep(time.Millisecond)
	}
	_ = s.Close()
}

func TestBadWALHeaderIsHardError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.ncl"), []byte("this is definitely not a WAL file"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("garbage WAL header accepted")
	}
}

// TestFeedChunkedEvictionsFitTheLog: the store frames whatever the feed
// publishes and chunks nothing itself, so the feed's eviction chunks
// (512 ids / 256 KiB, one sequence each) must be records the replay
// path accepts — a sweep of maximum-length ids in one frame would
// exceed the record size limit and be dropped. Each chunk is its own
// event with its own sequence in the log.
func TestFeedChunkedEvictionsFitTheLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	feed := changefeed.New(16, 0)
	feed.Tap(func(ev changefeed.Event) { s.Append(ev.Frame()) })
	n := 600
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%0*d", wire.MaxIDLen, i) // every id at the wire's maximum
		feed.PublishUpsert(Entry{ID: ids[i], Coord: coord.New(1, 2, 3), UpdatedAt: time.Unix(0, 1)})
	}
	first := feed.Seq() + 1
	last := feed.PublishEvict(ids)
	if last-first+1 < 3 {
		t.Fatalf("600 maximum-length ids published as %d events; the byte bound should split them further", last-first+1)
	}
	feed.PublishUpsert(testEntry("survivor", 1, 99))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	var evs []wire.Event
	if _, err := replayWAL(walPath(dir, 1), 1, func(ev wire.Event) {
		if ev.Seq >= first {
			evs = append(evs, ev)
		}
	}); err != nil || uint64(len(evs)) != last-first+2 {
		t.Fatalf("replay: %d events from seq %d, err %v; want %d", len(evs), first, err, last-first+2)
	}
	total := 0
	for i, ev := range evs[:len(evs)-1] {
		if ev.Op != wire.OpEvict || ev.Seq != first+uint64(i) {
			t.Fatalf("record %d: op %d seq %d, want an evict at its own seq %d", i, ev.Op, ev.Seq, first+uint64(i))
		}
		total += len(ev.IDs)
	}
	if total != n {
		t.Fatalf("eviction records carry %d ids, want %d", total, n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := s.Stats().Dropped; d != 0 {
		t.Fatalf("dropped %d records", d)
	}
	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	if rec := s2.Recovery(); rec.TornBytes != 0 || rec.QuarantinedWALs != 0 {
		t.Fatalf("an eviction record severed the log: %+v", rec)
	}
	entriesEqual(t, recovered, []Entry{testEntry("survivor", 1, 99)})
}

func TestAppendDropsUnencodableRecord(t *testing.T) {
	// Defense in depth: a record that cannot be encoded, an event that
	// carries no frame, or a frame past the record bound is dropped and
	// counted, never written as a record that reads back as corruption.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("good", 1, 1))
	logUpsert(s, Entry{ID: strings.Repeat("x", wire.MaxIDLen+1), Coord: coord.New(1, 2, 3)})
	s.Append(nil)
	s.Append(make([]byte, maxRecordSize+1))
	logUpsert(s, testEntry("also-good", 2, 2))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := s.Stats().Dropped; d != 3 {
		t.Fatalf("Dropped = %d, want 3", d)
	}
	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	entriesEqual(t, recovered, []Entry{testEntry("also-good", 2, 2), testEntry("good", 1, 1)})
}

func TestCompactFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	defer s.Close()
	if err := s.Compact("manual", func() (Capture, error) { return Capture{}, fmt.Errorf("capture exploded") }); err == nil {
		t.Fatal("capture failure swallowed")
	}
	st := s.Stats()
	if st.CompactFailures != 1 || st.CompactErr == "" {
		t.Fatalf("compaction failure not surfaced: %+v", st)
	}
}

func TestRecoveryLastSeqAcrossSnapshotAndWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	for i := 1; i <= 5; i++ {
		s.LogUpsert(testEntry(fmt.Sprintf("n%d", i), float64(i), int64(i)), uint64(i), 1)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, _ := mustOpen(t, dir)
	if got := s2.Recovery().LastSeq; got != 5 {
		t.Fatalf("WAL-only LastSeq = %d, want 5", got)
	}
	// Compact at seq 5, append 6..7: LastSeq must take the WAL max.
	if err := s2.Compact("manual", func() (Capture, error) { return Capture{Seq: 5}, nil }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	s2.LogUpsert(testEntry("n6", 6, 6), 6, 1)
	s2.LogUpsert(testEntry("n7", 7, 7), 7, 1)
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3, _ := mustOpen(t, dir)
	if got := s3.Recovery().LastSeq; got != 7 {
		t.Fatalf("LastSeq = %d, want 7", got)
	}
	// Snapshot-only recovery (empty WAL tail): the snapshot's capture
	// sequence alone must seed LastSeq.
	if err := s3.Compact("manual", func() (Capture, error) { return Capture{Seq: 7}, nil }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s4, _ := mustOpen(t, dir)
	defer s4.Close()
	if got := s4.Recovery().LastSeq; got != 7 {
		t.Fatalf("snapshot-only LastSeq = %d, want 7", got)
	}
}

func TestCompactReasonRecorded(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	defer s.Close()
	if err := s.Compact("wal-bytes", func() (Capture, error) { return Capture{}, nil }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Compact("timer", func() (Capture, error) { return Capture{}, nil }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.LastCompactReason != "timer" {
		t.Fatalf("LastCompactReason = %q, want timer", st.LastCompactReason)
	}
	if st.CompactReasons["wal-bytes"] != 1 || st.CompactReasons["timer"] != 1 {
		t.Fatalf("CompactReasons = %v", st.CompactReasons)
	}
}

func TestWALGenRecordsResetOnCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	defer s.Close()
	for i := 1; i <= 8; i++ {
		s.LogUpsert(testEntry(fmt.Sprintf("n%d", i), float64(i), int64(i)), uint64(i), 1)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := s.Stats().WALGenRecords; got != 8 {
		t.Fatalf("WALGenRecords = %d, want 8", got)
	}
	if err := s.Compact("manual", func() (Capture, error) { return Capture{Seq: 8}, nil }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.Stats().WALGenRecords; got != 0 {
		t.Fatalf("WALGenRecords after compaction = %d, want 0", got)
	}
	s.LogUpsert(testEntry("n9", 9, 9), 9, 1)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := s.Stats().WALGenRecords; got != 1 {
		t.Fatalf("WALGenRecords in new generation = %d, want 1", got)
	}
}

func TestSnapshotBogusCountRejectedNotAllocated(t *testing.T) {
	// The entry count is untrusted even under a valid CRC (a checksum
	// is not authentication): a count the body cannot hold must be a
	// clean corruption error and generation fallback, not a huge
	// allocation inside Open.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("a", 1, 100))
	if err := s.Compact("manual", func() (Capture, error) {
		return Capture{Entries: []Entry{testEntry("a", 1, 100)}, Seq: testSeqCounter.Load(), Epoch: 1}, nil
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	logUpsert(s, testEntry("b", 2, 200))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Rewrite the snapshot's entry count to an absurd value and fix up
	// the CRC so only the bounds check can catch it.
	path := snapPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	body := data[8 : len(data)-4]
	binary.LittleEndian.PutUint64(body[40:], 1<<56)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("open succeeded on a snapshot with an impossible count")
	}
}

// TestFormat3FilesRefused: a directory written by the previous on-disk
// format (whose record and entry payloads were persist's own encoding,
// not wire frames) is refused at the magic check with an error naming
// the format found and the format wanted — there is no upgrade reader;
// the directory is re-bootstrapped from a peer.
func TestFormat3FilesRefused(t *testing.T) {
	walHeader := append([]byte{'N', 'C', 'W', 'A', 'L', 3, 0, 0}, 1, 0, 0, 0, 0, 0, 0, 0) // magic + generation 1
	snapMagic3 := []byte{'N', 'C', 'S', 'N', 'A', 'P', 3, 0}
	for name, file := range map[string][]byte{
		"wal-0000000000000001.ncl":  walHeader,
		"snap-0000000000000001.ncs": snapMagic3,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		_, _, err := Open(dir, testOptions())
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: Open err = %v, want ErrFormat", name, err)
		}
		for _, want := range []string{name, "format 3", "format 4"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", name, err, want)
			}
		}
		// The refusal holds the lock no longer than the failed Open.
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s: refused file was touched: %v", name, err)
		}
	}
}

// TestRecoveryRecordWithTrailingBytesIsCorrupt: a record is exactly one
// frame. Bytes after it under a valid envelope CRC are damage (or a
// writer bug), not a second record — quarantined like a checksum
// mismatch.
func TestRecoveryRecordWithTrailingBytesIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	logUpsert(s, testEntry("a", 1, 100))
	frame, err := wire.AppendEntryFrame(nil, &Entry{ID: "b", Coord: coord.New(2, 4, -2)})
	if err != nil {
		t.Fatal(err)
	}
	s.Append(append(frame, 0x00))
	logUpsert(s, testEntry("c", 3, 300))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	entriesEqual(t, recovered, []Entry{testEntry("a", 1, 100)})
	if rec := s2.Recovery(); rec.QuarantinedWALs != 1 || !errors.Is(s2.QuarantineErr(), ErrCorruptRecord) {
		t.Fatalf("recovery %+v, quarantine err %v; want one quarantined WAL", rec, s2.QuarantineErr())
	}
}

func TestWALWriteFailureIsStickyAndCounted(t *testing.T) {
	// A WAL write error degrades the store: the failed batch and every
	// later record are counted as dropped, the error sticks, Close still
	// returns, and the records synced before the fault survive a reopen.
	const durable, lost = 5, 3
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	var want []Entry
	for i := 0; i < durable; i++ {
		e := testEntry(fmt.Sprintf("d%d", i), float64(i), int64(i+1))
		want = append(want, e)
		logUpsert(s, e)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync before fault: %v", err)
	}

	// Swap the active WAL handle for a read-only one on the same file:
	// the next flush's write fails the way a yanked disk would.
	s.ioMu.Lock()
	s.mu.Lock()
	good := s.walFile
	ro, err := os.Open(good.Name())
	if err != nil {
		s.mu.Unlock()
		s.ioMu.Unlock()
		t.Fatalf("open read-only: %v", err)
	}
	s.walFile = ro
	s.mu.Unlock()
	s.ioMu.Unlock()
	if err := good.Close(); err != nil {
		t.Fatalf("close writable handle: %v", err)
	}

	for i := 0; i < lost; i++ {
		logUpsert(s, testEntry(fmt.Sprintf("l%d", i), float64(i), int64(i+100)))
	}
	serr := s.Sync()
	if serr == nil || !strings.Contains(serr.Error(), "persist: wal write") {
		t.Fatalf("Sync after fault = %v, want a persist: wal write error", serr)
	}
	if got := s.Err(); got != serr {
		t.Fatalf("Err() = %v, want the sticky %v", got, serr)
	}
	if st := s.Stats(); st.Dropped != lost || st.Err != serr.Error() {
		t.Fatalf("Stats after fault: dropped %d err %q, want %d and %q", st.Dropped, st.Err, lost, serr)
	}
	logUpsert(s, testEntry("after", 9, 999))
	if got := s.Stats().Dropped; got != lost+1 {
		t.Fatalf("Append on a failed store: dropped %d, want %d", got, lost+1)
	}
	if err := s.Sync(); err != serr {
		t.Fatalf("second Sync = %v, want the sticky %v", err, serr)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != serr {
			t.Fatalf("Close = %v, want the sticky %v", err, serr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a failed store")
	}

	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	entriesEqual(t, recovered, want)
	if rec := s2.Recovery(); rec.WALRecords != durable {
		t.Fatalf("replayed %d records, want the %d durable ones", rec.WALRecords, durable)
	}
}

func TestRecoveryWithSyncOn(t *testing.T) {
	// Recovery through a compaction after an explicit Sync: the WAL fsync
	// and the directory syncs (snapshot rename, new generation) all run,
	// and the flusher counts them.
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	var state []Entry
	for i := 0; i < 10; i++ {
		e := testEntry(fmt.Sprintf("n%02d", i), float64(i), int64(i+1))
		state = append(state, e)
		logUpsert(s, e)
	}
	if err := s.Compact("manual", func() (Capture, error) {
		return Capture{Entries: state, Seq: testSeqCounter.Load(), Epoch: 1}, nil
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	logRemove(s, "n00")
	logUpsert(s, testEntry("n05", 50, 500))
	logUpsert(s, testEntry("n10", 10, 11))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := s.Stats(); st.Syncs == 0 {
		t.Fatalf("Syncs = 0 after a flush: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, recovered := mustOpen(t, dir)
	defer s2.Close()
	want := append([]Entry(nil), state[1:5]...)
	want = append(want, testEntry("n05", 50, 500))
	want = append(want, state[6:]...)
	want = append(want, testEntry("n10", 10, 11))
	entriesEqual(t, recovered, want)
}
