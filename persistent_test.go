package netcoord

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openTestPR opens a persistent registry with test-friendly options.
func openTestPR(t *testing.T, dir string, reg RegistryConfig) *PersistentRegistry {
	t.Helper()
	p, err := OpenPersistentRegistry(PersistentRegistryConfig{
		Registry:         reg,
		Dir:              dir,
		SnapshotInterval: -1, // compact manually
		NoSync:           true,
	})
	if err != nil {
		t.Fatalf("OpenPersistentRegistry: %v", err)
	}
	return p
}

func TestPersistentRegistryRestartWarm(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return base }

	p := openTestPR(t, dir, RegistryConfig{Clock: clock})
	for i := 0; i < 40; i++ {
		if err := p.Upsert(fmt.Sprintf("n%02d", i), c3(float64(i), 0, 0), 0.1); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
	}
	if !p.Remove("n00") {
		t.Fatal("Remove: n00 missing")
	}
	before := p.Snapshot()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := openTestPR(t, dir, RegistryConfig{Clock: clock})
	defer p2.Close()
	after := p2.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("recovered %d entries, want %d", len(after), len(before))
	}
	for i := range before {
		b, a := before[i], after[i]
		if a.ID != b.ID || !a.Coord.Equal(b.Coord) || a.Error != b.Error {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, a, b)
		}
		if !a.UpdatedAt.Equal(b.UpdatedAt) {
			t.Fatalf("entry %s UpdatedAt not preserved: %v vs %v", a.ID, a.UpdatedAt, b.UpdatedAt)
		}
	}
	// Queries work immediately on the recovered state.
	got, err := p2.NearestTo("n05", 3)
	if err != nil {
		t.Fatalf("NearestTo: %v", err)
	}
	if len(got) != 3 || got[0].ID != "n04" && got[0].ID != "n06" {
		t.Fatalf("NearestTo on recovered registry = %+v", got)
	}
	rec := p2.Recovery()
	if rec.Entries != 39 {
		t.Fatalf("Recovery.Entries = %d, want 39", rec.Entries)
	}
}

func TestPersistentRegistryCompactionAndTail(t *testing.T) {
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	for i := 0; i < 30; i++ {
		if err := p.Upsert(fmt.Sprintf("n%02d", i), c3(float64(i), 1, 1), 0); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
	}
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Mutations after compaction land in the WAL tail.
	if err := p.Upsert("tail", c3(99, 99, 99), 0.5); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	p.Remove("n00")
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	rec := p2.Recovery()
	if rec.SnapshotEntries != 30 {
		t.Fatalf("snapshot entries = %d, want 30", rec.SnapshotEntries)
	}
	if rec.WALRecords != 2 {
		t.Fatalf("WAL tail records = %d, want 2", rec.WALRecords)
	}
	if p2.Len() != 30 { // 30 - n00 + tail
		t.Fatalf("Len = %d, want 30", p2.Len())
	}
	if _, ok := p2.Get("tail"); !ok {
		t.Fatal("WAL-tail entry lost")
	}
	if _, ok := p2.Get("n00"); ok {
		t.Fatal("WAL-tail remove lost")
	}
}

func TestPersistentRegistryTTLAcrossDowntime(t *testing.T) {
	// UpdatedAt survives restarts, so entries that went stale during
	// downtime are evicted on the first sweep — they do not get a fresh
	// lease — while still-fresh entries survive.
	dir := t.TempDir()
	base := time.Unix(1_700_000_000, 0)
	now := base
	clock := func() time.Time { return now }

	cfg := RegistryConfig{TTL: 5 * time.Minute, Clock: clock}
	p := openTestPR(t, dir, cfg)
	if err := p.Upsert("old", c3(1, 0, 0), 0); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	now = base.Add(4 * time.Minute)
	if err := p.Upsert("fresh", c3(2, 0, 0), 0); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart after 2 more minutes of downtime: "old" is now 6 minutes
	// stale (past TTL), "fresh" only 2.
	now = base.Add(6 * time.Minute)
	p2 := openTestPR(t, dir, cfg)
	defer p2.Close()
	if p2.Len() != 2 {
		t.Fatalf("recovered %d entries, want 2 before sweep", p2.Len())
	}
	if n := p2.EvictStale(); n != 1 {
		t.Fatalf("evicted %d entries, want exactly the stale one", n)
	}
	if _, ok := p2.Get("old"); ok {
		t.Fatal("stale entry survived downtime with a fresh lease")
	}
	if _, ok := p2.Get("fresh"); !ok {
		t.Fatal("fresh entry evicted")
	}

	// The eviction itself was logged: another restart must not
	// resurrect "old".
	if err := p2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p3 := openTestPR(t, dir, cfg)
	defer p3.Close()
	if _, ok := p3.Get("old"); ok {
		t.Fatal("logged eviction lost: stale entry resurrected on second restart")
	}
}

func TestPersistentRegistryFeedIsLogged(t *testing.T) {
	// Mutations arriving through Feed (the live-node path) go through
	// the same hook as direct upserts.
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	updates := make(chan NodeUpdate, 4)
	stop := p.Feed("live", updates)
	updates <- NodeUpdate{Coord: c3(5, 5, 5), Error: 0.3}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := p.Get("live"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("feed update never applied")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	e, ok := p2.Get("live")
	if !ok || !e.Coord.Equal(c3(5, 5, 5)) {
		t.Fatalf("fed entry not recovered: %+v %v", e, ok)
	}
}

func TestPersistentRegistryRecoveryUsesBulkBuild(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	batch := make([]RegistryEntry, n)
	for i := range batch {
		batch[i] = RegistryEntry{
			ID:    fmt.Sprintf("node-%06d", i),
			Coord: c3(float64(i%503), float64(i%211), float64(i%97)),
		}
	}
	if err := p.UpsertBatch(batch); err != nil {
		t.Fatalf("UpsertBatch: %v", err)
	}
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	if p2.Len() != n {
		t.Fatalf("recovered %d entries, want %d", p2.Len(), n)
	}
	// Recovery loads through UpsertBatch on an empty registry, which
	// bulk-builds the kd-tree balanced in one pass — zero
	// incremental rebuilds is the signature of that path.
	if st := p2.Stats(); st.IndexRebuilds != 0 {
		t.Fatalf("recovery triggered %d incremental index rebuilds; bulk path not taken", st.IndexRebuilds)
	}
}

func TestPersistentRegistryRejectsDimensionMismatch(t *testing.T) {
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{Dimension: 3})
	if err := p.Upsert("a", c3(1, 2, 3), 0); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := OpenPersistentRegistry(PersistentRegistryConfig{
		Registry: RegistryConfig{Dimension: 2},
		Dir:      dir,
		NoSync:   true,
	}); err == nil {
		t.Fatal("dimension-mismatched data directory accepted")
	}
}

func TestOpenPersistentRegistryValidation(t *testing.T) {
	if _, err := OpenPersistentRegistry(PersistentRegistryConfig{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := OpenPersistentRegistry(PersistentRegistryConfig{
		Dir:      t.TempDir(),
		Registry: RegistryConfig{Dimension: 40},
	}); err == nil {
		t.Fatal("unpersistable dimension accepted")
	}
}

func TestPersistentRegistryRejectsOversizedID(t *testing.T) {
	// An id the WAL cannot encode must be rejected at the API, not
	// accepted into memory while being silently non-durable (which
	// would also wedge every snapshot write).
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	defer p.Close()
	long := strings.Repeat("x", 5000)
	if err := p.Upsert(long, c3(1, 2, 3), 0); err == nil {
		t.Fatal("oversized id accepted by persistent registry")
	}
	if err := p.UpsertBatch([]RegistryEntry{
		{ID: "ok", Coord: c3(1, 2, 3)},
		{ID: long, Coord: c3(1, 2, 3)},
	}); err == nil {
		t.Fatal("oversized id accepted via batch")
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after rejected upserts, want 0 (batch atomicity)", p.Len())
	}
	if err := p.Upsert("ok", c3(1, 2, 3), 0); err != nil {
		t.Fatalf("normal upsert rejected: %v", err)
	}
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact after rejected ids: %v", err)
	}
	if st := p.PersistStats(); st.Dropped != 0 || st.CompactFailures != 0 {
		t.Fatalf("persistence degraded: dropped=%d compactFailures=%d", st.Dropped, st.CompactFailures)
	}
}

func TestPersistentRegistryJanitorEvictionLogged(t *testing.T) {
	// The TTL janitor starts only after the recorder is installed, so
	// every eviction it performs is durable: a restart must not
	// resurrect janitor-evicted entries.
	dir := t.TempDir()
	p, err := OpenPersistentRegistry(PersistentRegistryConfig{
		Registry:         RegistryConfig{TTL: 20 * time.Millisecond, JanitorInterval: 5 * time.Millisecond},
		Dir:              dir,
		SnapshotInterval: -1,
		NoSync:           true,
	})
	if err != nil {
		t.Fatalf("OpenPersistentRegistry: %v", err)
	}
	if err := p.Upsert("ephemeral", c3(1, 0, 0), 0); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := p.Get("ephemeral"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the stale entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	if _, ok := p2.Get("ephemeral"); ok {
		t.Fatal("janitor eviction was not logged: entry resurrected on restart")
	}
}

func TestPersistentRegistryEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	if err := p.Upsert("a", c3(1, 0, 0), 0.1); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	if got := p.ChangeEpoch(); got != 0 {
		t.Fatalf("fresh registry epoch = %d, want 0", got)
	}
	epoch, err := p.Fence()
	if err != nil {
		t.Fatalf("Fence: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("Fence epoch = %d, want 1", epoch)
	}
	// Fencing is cumulative: a second fence keeps climbing.
	if epoch, err = p.Fence(); err != nil || epoch != 2 {
		t.Fatalf("second Fence = %d, %v; want 2", epoch, err)
	}
	// Post-fence mutations are stamped with the new epoch.
	if err := p.Upsert("b", c3(2, 0, 0), 0.1); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	seq := p.ChangeSeq()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	if got := p2.ChangeEpoch(); got != 2 {
		t.Fatalf("recovered epoch = %d, want 2", got)
	}
	if got := p2.ChangeSeq(); got != seq {
		t.Fatalf("recovered seq = %d, want %d", got, seq)
	}
	// New mutations continue under the recovered epoch.
	if err := p2.Upsert("c", c3(3, 0, 0), 0.1); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	evs, err := p2.ChangesSince(seq, -1)
	if err != nil || len(evs) != 1 {
		t.Fatalf("ChangesSince(%d) = %v, %v", seq, evs, err)
	}
	if evs[0].Epoch != 2 {
		t.Fatalf("post-restart event epoch = %d, want 2", evs[0].Epoch)
	}
}

func TestPersistentRegistryTombstonesSurviveRestart(t *testing.T) {
	// A follower that bootstrapped at seq S asks the restarted leader for
	// /snapshot?since=S. The delta's removed list comes from tombstone
	// knowledge, which must therefore be durable — otherwise the restart
	// silently forgets removals and the follower resurrects dead nodes.
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	for i := 0; i < 8; i++ {
		if err := p.Upsert(fmt.Sprintf("n%d", i), c3(float64(i), 0, 0), 0.1); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
	}
	mark := p.ChangeSeq() // a follower's resume point, before the removals
	p.Remove("n0")
	p.Remove("n1")
	// Compact so the tombstones must travel through the snapshot, not
	// just WAL replay.
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	d := p2.SnapshotSince(mark)
	if !d.Delta {
		t.Fatalf("SnapshotSince(%d) not a delta after restart; tombstones lost", mark)
	}
	entries, removed := d.Entries, []string{}
	for _, ts := range d.Tombstones {
		removed = append(removed, ts.ID)
	}
	// Per-entry sequences are not persisted, so a recovered delta may
	// conservatively over-include live entries — but it must never
	// resurrect a removed one.
	for _, e := range entries {
		if e.ID == "n0" || e.ID == "n1" {
			t.Fatalf("delta resurrected removed entry %s", e.ID)
		}
	}
	if len(removed) != 2 {
		t.Fatalf("delta removed = %v, want [n0 n1]", removed)
	}
	seen := map[string]bool{}
	for _, id := range removed {
		seen[id] = true
	}
	if !seen["n0"] || !seen["n1"] {
		t.Fatalf("delta removed = %v, want n0 and n1", removed)
	}
}

func TestPersistentRegistryWALOnlyRecoveryKnowsNothingBelowItsTail(t *testing.T) {
	// Deleting the snapshots of a compacted directory leaves the WAL
	// tail alone: removals before it are unknown, so a resume point
	// below the tail must get a full snapshot, not a delta that keeps
	// what the leader no longer has.
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	for i := 0; i < 8; i++ {
		if err := p.Upsert(fmt.Sprintf("n%d", i), c3(float64(i), 0, 0), 0.1); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
	}
	below := p.ChangeSeq() - 2
	p.Remove("n7")
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	tail := p.ChangeSeq()
	p.Remove("n0")
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ncs"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot to delete: %v %v", snaps, err)
	}
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}

	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	if d := p2.SnapshotSince(below); d.Delta {
		t.Fatalf("SnapshotSince(%d) is a delta, but the WAL tail starts after %d", below, tail)
	}
	if d := p2.SnapshotSince(tail); !d.Delta || len(d.Tombstones) != 1 || d.Tombstones[0].ID != "n0" {
		t.Fatalf("SnapshotSince(%d) = delta %v, tombstones %v; want a delta removing n0", tail, d.Delta, d.Tombstones)
	}
}

// TestWALServesTheFramesTheRingServed: publish → WAL → reopen. The WAL
// logged the bytes each event carried, so recovery decodes the very
// frames the ring served: every entry a post-compaction event wrote
// comes back as that event's entry, and the recovered snapshot keeps
// per-entry sequences and times exactly, through a compaction too. The
// restarted registry's ring is empty; history is not read back.
func TestWALServesTheFramesTheRingServed(t *testing.T) {
	dir := t.TempDir()
	p := openTestPR(t, dir, RegistryConfig{})
	for i := 0; i < 30; i++ {
		if err := p.Upsert(fmt.Sprintf("n%02d", i%20), c3(float64(i), 1, 0), 0.1); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
	}
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	floor := p.ChangeSeq()
	for i := 0; i < 25; i++ {
		if err := p.Upsert(fmt.Sprintf("n%02d", i%10), c3(float64(i), 2, 0), 0.2); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
	}
	p.Remove("n03")
	fromRing, err := p.ChangesSince(floor, 0)
	if err != nil || len(fromRing) != 26 {
		t.Fatalf("ring ChangesSince(%d): %d events, %v", floor, len(fromRing), err)
	}
	served := map[uint64]RegistryEntry{}
	for _, ev := range fromRing {
		if ev.Op == ChangeUpsert {
			served[ev.Seq] = ev.Entry
		}
	}
	before := p.Snapshot()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2 := openTestPR(t, dir, RegistryConfig{})
	defer p2.Close()
	if st := p2.ChangeStreamStats(); st.RingLen != 0 {
		t.Fatalf("reopened ring holds %d events, want none", st.RingLen)
	}
	if _, err := p2.ChangesSince(floor, 0); !errors.Is(err, ErrChangeHistoryTruncated) {
		t.Fatalf("restarted ChangesSince(%d) err = %v, want truncation", floor, err)
	}
	after := p2.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("recovered %d entries, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i].ID != before[i].ID || after[i].Seq != before[i].Seq || after[i].UpdatedAt.UnixNano() != before[i].UpdatedAt.UnixNano() {
			t.Fatalf("entry %d: recovered %+v, want %+v (per-entry seq and time exact)", i, after[i], before[i])
		}
		if e, ok := served[after[i].Seq]; after[i].Seq > floor && (!ok || e.ID != after[i].ID || !e.Coord.Equal(after[i].Coord) || e.Error != after[i].Error || e.UpdatedAt.UnixNano() != after[i].UpdatedAt.UnixNano()) {
			t.Fatalf("entry %s at seq %d: recovered %+v, the ring served %+v", after[i].ID, after[i].Seq, after[i], e)
		}
	}
}
