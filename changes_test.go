package netcoord

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcoord/internal/wire"
)

// applyChangeEvents replays wire events over a state map the way a
// follower does — per-id last-write-wins.
func applyChangeEvents(state map[string]RegistryEntry, evs []ChangeEvent) error {
	for _, ev := range evs {
		switch ev.Op {
		case ChangeUpsert:
			state[ev.Entry.ID] = ev.Entry
		case ChangeRemove:
			delete(state, ev.ID)
		case ChangeEvict:
			for _, id := range ev.IDs {
				delete(state, id)
			}
		default:
			return fmt.Errorf("unknown op %d", ev.Op)
		}
	}
	return nil
}

// assertStateMatchesRegistry compares a reconstructed state map with
// the registry's live contents, including exact UpdatedAt times.
func assertStateMatchesRegistry(t *testing.T, state map[string]RegistryEntry, reg *Registry) {
	t.Helper()
	live := reg.Snapshot()
	if len(live) != len(state) {
		t.Fatalf("reconstructed %d entries, live registry has %d", len(state), len(live))
	}
	for _, e := range live {
		got, ok := state[e.ID]
		if !ok {
			t.Fatalf("live entry %q missing from reconstruction", e.ID)
		}
		if !got.Coord.Equal(e.Coord) || got.Error != e.Error {
			t.Fatalf("entry %q mismatch: got %+v, live %+v", e.ID, got, e)
		}
		if got.UpdatedAt.UnixNano() != e.UpdatedAt.UnixNano() {
			t.Fatalf("entry %q UpdatedAt drifted: got %v, live %v", e.ID, got.UpdatedAt, e.UpdatedAt)
		}
	}
}

func TestChangeStreamSequencesEveryMutation(t *testing.T) {
	// Acceptance: zero missed events across 10k mutations — a reader
	// paging through ChangesSince (as a /changes client does) sees a
	// dense, gap-free sequence covering every applied upsert and remove,
	// and replaying it reconstructs the registry exactly.
	const mutations = 10_000
	r := newTestRegistry(t, RegistryConfig{ChangeStreamBuffer: mutations + 64})

	rng := rand.New(rand.NewSource(42))
	applied := uint64(0)
	for applied < mutations {
		if rng.Intn(5) == 0 {
			// Remove publishes only when something was actually deleted.
			if r.Remove(fmt.Sprintf("n%04d", rng.Intn(2000))) {
				applied++
			}
		} else {
			if err := r.Upsert(fmt.Sprintf("n%04d", rng.Intn(2000)), c3(rng.Float64()*100, rng.Float64()*100, 0), 0.1); err != nil {
				t.Fatalf("Upsert: %v", err)
			}
			applied++
		}
	}
	finalSeq := r.ChangeSeq()
	if finalSeq != applied {
		t.Fatalf("ChangeSeq = %d, want %d (every applied mutation sequenced exactly once)", finalSeq, applied)
	}

	state := make(map[string]RegistryEntry)
	var got []ChangeEvent
	var prev uint64
	for prev < finalSeq {
		page, err := r.ChangesSince(prev, 512)
		if err != nil || len(page) == 0 {
			t.Fatalf("ChangesSince(%d) = %d events, %v", prev, len(page), err)
		}
		for _, ev := range page {
			if prev+1 != ev.Seq {
				t.Fatalf("gap: event %d after %d", ev.Seq, prev)
			}
			prev = ev.Seq
		}
		got = append(got, page...)
	}
	if err := applyChangeEvents(state, got); err != nil {
		t.Fatal(err)
	}
	assertStateMatchesRegistry(t, state, r)
}

func TestResumedSubscriberReconstructsLiveState(t *testing.T) {
	// Property behind follower bootstrap: SnapshotWithSeq taken WHILE
	// mutations race, plus ChangesSince(seq) once they stop, equals the
	// live registry exactly — the snapshot is a superset of the stream
	// position and replay is idempotent.
	r := newTestRegistry(t, RegistryConfig{ChangeStreamBuffer: 1 << 16})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("w%d-%03d", w, rng.Intn(300))
				if i%7 == 3 {
					r.Remove(id)
				} else {
					_ = r.Upsert(id, c3(rng.Float64()*100, rng.Float64()*100, rng.Float64()*10), 0.2)
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	entries, seq := r.SnapshotWithSeq() // mid-storm bootstrap
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	state := make(map[string]RegistryEntry, len(entries))
	for _, e := range entries {
		state[e.ID] = e
	}
	evs, err := r.ChangesSince(seq, 0)
	if err != nil {
		t.Fatalf("ChangesSince(%d): %v", seq, err)
	}
	if err := applyChangeEvents(state, evs); err != nil {
		t.Fatal(err)
	}
	assertStateMatchesRegistry(t, state, r)
}

func TestEvictionsArePublishedWithIDs(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	var offset atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	r := newTestRegistry(t, RegistryConfig{
		TTL:                time.Hour,
		JanitorInterval:    24 * time.Hour, // sweep manually
		Clock:              clock,
		ChangeStreamBuffer: 128,
	})
	for i := 0; i < 10; i++ {
		if err := r.Upsert(fmt.Sprintf("old%d", i), c3(float64(i), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	offset.Store(int64(2 * time.Hour))
	for i := 0; i < 3; i++ {
		if err := r.Upsert(fmt.Sprintf("fresh%d", i), c3(float64(i), 5, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.EvictStale(); n != 10 {
		t.Fatalf("evicted %d, want 10", n)
	}
	evs, err := r.ChangesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	evicted := make(map[string]bool)
	for _, ev := range evs {
		if ev.Op == ChangeEvict {
			for _, id := range ev.IDs {
				evicted[id] = true
			}
		}
	}
	if len(evicted) != 10 {
		t.Fatalf("evict events carry %d ids, want 10", len(evicted))
	}
	state := make(map[string]RegistryEntry)
	if err := applyChangeEvents(state, evs); err != nil {
		t.Fatal(err)
	}
	assertStateMatchesRegistry(t, state, r)
}

func TestConcurrentWatchStress(t *testing.T) {
	// Satellite acceptance: readers attach and detach while upserts,
	// removes, and TTL evictions run, under -race. Every reader — a
	// cursor woken by the stream, paging the ring with ChangesSince —
	// must observe a dense stream from wherever it resumes; afterwards
	// the whole history reads back dense.
	r := newTestRegistry(t, RegistryConfig{
		TTL:                time.Millisecond,
		JanitorInterval:    time.Millisecond,
		ChangeStreamBuffer: 1 << 15,
	})

	// Each writer performs a fixed op count so total events stay well
	// inside the ring on any machine speed: 3×3000 writer ops plus at
	// most one eviction per upsert bounds the stream below 2^15.
	const opsPerWriter = 3000
	stop := make(chan struct{})
	var writers, wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < opsPerWriter; i++ {
				id := fmt.Sprintf("s%d-%02d", w, rng.Intn(50))
				if i%5 == 4 {
					r.Remove(id)
				} else {
					_ = r.Upsert(id, c3(rng.Float64()*50, rng.Float64()*50, 0), 0)
				}
			}
		}(w)
	}
	var gap atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := r.FollowChanges()
				pos := r.ChangeSeq()
				for i := 0; i < 64; i++ {
					select {
					case <-stop:
						c.Close()
						return
					case <-c.Wake():
					}
					// Deliberately tiny pages: a reader that falls behind
					// keeps resuming from its own position.
					evs, err := r.ChangesSince(pos, 4)
					if err != nil {
						t.Errorf("ChangesSince(%d): %v", pos, err)
						c.Close()
						return
					}
					for _, ev := range evs {
						if ev.Seq != pos+1 {
							gap.Store(true)
						}
						pos = ev.Seq
					}
				}
				c.Close()
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if gap.Load() {
		t.Fatal("a reader observed a gap or a repeat")
	}

	// Quiesce the stream before reading its final sequence: the writers
	// are done, but the 1 ms-TTL janitor keeps publishing evictions
	// until the registry is empty. Evictions are published under the
	// lock Len takes, so once Len reports 0 the last one is out.
	for deadline := time.Now().Add(5 * time.Second); r.Len() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("janitor left %d entries unevicted", r.Len())
		}
	}

	// The ring holds the whole history: it must read back dense.
	finalSeq := r.ChangeSeq()
	evs, err := r.ChangesSince(0, 0)
	if err != nil || uint64(len(evs)) != finalSeq {
		t.Fatalf("history: %d events, %v; want %d", len(evs), err, finalSeq)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("history has event %d at position %d", ev.Seq, i)
		}
	}
	st := r.ChangeStreamStats()
	if st.Seq != finalSeq || st.Subscribers != 0 {
		t.Fatalf("stream stats inconsistent: %+v (want seq %d, no cursor left)", st, finalSeq)
	}
}

func TestRingOnlyChangesSinceNamesTheRing(t *testing.T) {
	r := newTestRegistry(t, RegistryConfig{ChangeStreamBuffer: 4})
	for i := 0; i < 10; i++ {
		if err := r.Upsert(fmt.Sprintf("n%d", i), c3(float64(i), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	const want = "(ring starts at 7, requested 1)"
	if _, err := r.ChangesSince(0, 0); !errors.Is(err, ErrChangeHistoryTruncated) || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("ChangesSince(0) err = %v, want truncation ending %q", err, want)
	}
	if evs, err := r.ChangesSince(6, 0); err != nil || len(evs) != 4 {
		t.Fatalf("ChangesSince(6) = %d events, %v; want the 4 the ring holds", len(evs), err)
	}
}

// TestPersistentChangesSinceNamesTheRing: a persistent registry keeps
// no more history than a ring-only one. Below its ring — overwritten,
// or emptied by a restart — ChangesSince is truncated with the ring's
// own message, and SnapshotSince repairs a consumer from the same point.
func TestPersistentChangesSinceNamesTheRing(t *testing.T) {
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{ChangeStreamBuffer: 4})
	upsert := func(from, to int) {
		for i := from; i < to; i++ {
			if err := p.Upsert(fmt.Sprintf("n%03d", i%70), c3(float64(i), 0, 0), 0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	upsert(0, 50)
	snap, mark := p.SnapshotWithSeq()
	state := make(map[string]RegistryEntry, len(snap))
	for _, e := range snap {
		state[e.ID] = e
	}
	upsert(50, 100)
	p.Remove("n000")

	const want = "(ring starts at 98, requested 1)"
	if _, err := p.ChangesSince(0, 0); !errors.Is(err, ErrChangeHistoryTruncated) || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("ChangesSince(0) err = %v, want truncation ending %q", err, want)
	}
	if evs, err := p.ChangesSince(97, 0); err != nil || len(evs) != 4 {
		t.Fatalf("ChangesSince(97) = %d events, %v; want the 4 the ring holds", len(evs), err)
	}

	// A restart empties the ring: every earlier resume point is below
	// it, and only the current sequence resumes.
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p = openTestPR(t, dir, RegistryConfig{ChangeStreamBuffer: 4})
	defer p.Close()
	wantAfter := fmt.Sprintf("(ring starts at 102, requested %d)", mark+1)
	if _, err := p.ChangesSince(mark, 0); !errors.Is(err, ErrChangeHistoryTruncated) || !strings.HasSuffix(err.Error(), wantAfter) {
		t.Fatalf("restarted ChangesSince(%d) err = %v, want truncation ending %q", mark, err, wantAfter)
	}
	if evs, err := p.ChangesSince(101, 0); err != nil || len(evs) != 0 {
		t.Fatalf("restarted ChangesSince(current) = %d events, %v; want empty, nil", len(evs), err)
	}
	d := p.SnapshotSince(mark)
	if !d.Delta || d.Seq != 101 || len(d.Tombstones) != 1 || d.Tombstones[0] != (wire.Tombstone{Seq: 101, ID: "n000"}) {
		t.Fatalf("SnapshotSince(%d) = delta %v, seq %d, tombstones %v; want a delta to 101 removing n000 at 101", mark, d.Delta, d.Seq, d.Tombstones)
	}
	for _, ts := range d.Tombstones {
		delete(state, ts.ID)
	}
	for _, e := range d.Entries {
		state[e.ID] = e
	}
	assertStateMatchesRegistry(t, state, p.Registry)
}

func TestChangeSeqContinuesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	for i := 0; i < 10; i++ {
		if err := p.Upsert(fmt.Sprintf("n%d", i), c3(float64(i), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.ChangeSeq(); got != 10 {
		t.Fatalf("ChangeSeq = %d, want 10", got)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	if got := p2.ChangeSeq(); got != 10 {
		t.Fatalf("recovered ChangeSeq = %d, want 10 (sequences must survive restarts)", got)
	}
	if err := p2.Upsert("n10", c3(10, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if got := p2.ChangeSeq(); got != 11 {
		t.Fatalf("post-restart mutation seq = %d, want 11 (no reuse)", got)
	}
	// And the ring carries on from the recovered sequence: resume from
	// 10 yields exactly the one new event.
	evs, err := p2.ChangesSince(10, 0)
	if err != nil || len(evs) != 1 || evs[0].Seq != 11 {
		t.Fatalf("ChangesSince(10) = %+v, %v; want the seq-11 upsert", evs, err)
	}
}

func TestCompactionTriggersOnWALGrowth(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistentRegistry(PersistentRegistryConfig{
		Registry:         RegistryConfig{},
		Dir:              dir,
		SnapshotInterval: time.Hour, // the timer will never fire in this test
		CompactWALBytes:  8 << 10,   // ~8KiB: a small storm crosses it
		NoSync:           true,
	})
	if err != nil {
		t.Fatalf("OpenPersistentRegistry: %v", err)
	}
	defer p.Close()
	for i := 0; i < 2000; i++ {
		if err := p.Upsert(fmt.Sprintf("storm-%04d", i%500), c3(float64(i%97), float64(i%89), 0), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.PersistStats()
		if st.CompactReasons["wal-bytes"] > 0 {
			if st.LastCompactReason != "wal-bytes" {
				t.Fatalf("LastCompactReason = %q, want wal-bytes", st.LastCompactReason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WAL growth never triggered a compaction: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
