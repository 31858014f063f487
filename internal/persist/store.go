package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netcoord/internal/telemetry"
	"netcoord/internal/wire"
)

// Options tunes a Store. Besides the FlushInterval timer, a Store
// flushes early once 512 records are pending, which bounds buffered
// memory under write storms.
type Options struct {
	// FlushInterval is the group-commit window: appended records become
	// durable at most this long after Append returns. 0 means
	// DefaultFlushInterval.
	FlushInterval time.Duration
}

// Store defaults.
const (
	// DefaultFlushInterval is the default group-commit window.
	DefaultFlushInterval = 50 * time.Millisecond
	// flushBatch flushes early once this many records are pending,
	// bounding buffered memory under write storms.
	flushBatch = 512
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("persist: store closed")

// RecoveryStats describes what Open reconstructed.
type RecoveryStats struct {
	// SnapshotGen is the generation of the snapshot loaded (0 = none).
	SnapshotGen uint64 `json:"snapshot_gen"`
	// SnapshotEntries is how many entries the snapshot held.
	SnapshotEntries int `json:"snapshot_entries"`
	// CorruptSnapshots counts snapshot files that failed verification
	// and were skipped in favor of an older generation.
	CorruptSnapshots int `json:"corrupt_snapshots"`
	// WALFiles and WALRecords count the log generations and complete
	// records replayed on top of the snapshot.
	WALFiles   int `json:"wal_files"`
	WALRecords int `json:"wal_records"`
	// TornBytes is how many trailing bytes were discarded from torn or
	// truncated log tails.
	TornBytes int64 `json:"torn_bytes"`
	// QuarantinedWALs counts log generations that contained a corrupt
	// record (complete frame, failed verification — media damage, not a
	// crash tail): the damaged file is renamed aside with a .corrupt
	// suffix, its valid prefix is rewritten in place, and replay of that
	// generation stops at the bad record. The typed cause is available
	// through QuarantineErr.
	QuarantinedWALs int `json:"quarantined_wals"`
	// Entries is the recovered live-entry count.
	Entries int `json:"entries"`
	// LastSeq is the highest change-stream sequence persisted — the
	// maximum of the snapshot's capture sequence and every replayed WAL
	// record's sequence. The owner seeds its change stream here so
	// sequence numbers survive restarts instead of restarting at zero.
	LastSeq uint64 `json:"last_seq"`
	// LastEpoch is the highest fencing epoch persisted — the maximum of
	// the snapshot's epoch and every replayed record's. The owner seeds
	// its change stream here so a promoted leader keeps fencing after a
	// restart.
	LastEpoch uint64 `json:"last_epoch"`
	// TombstoneFloor and Tombstones describe the recovered removal
	// knowledge (snapshot ring plus replayed removal records); the
	// tombstones themselves are in the Capture Open returns.
	TombstoneFloor uint64 `json:"tombstone_floor"`
	Tombstones     int    `json:"tombstones"`
}

// StoreStats snapshots a Store's operational counters.
type StoreStats struct {
	// Gen is the active WAL generation.
	Gen uint64 `json:"gen"`
	// WALRecords counts records durably written to the log since Open
	// (enqueued records are counted once their group commit succeeds;
	// discarded ones land in Dropped instead). WALBytes is the active
	// generation's size on disk and WALGenRecords the records committed
	// to it — both reset at each compaction, so graph them as gauges,
	// not throughput counters; they are also the compactor's
	// tail-growth triggers.
	WALRecords    uint64 `json:"wal_records"`
	WALBytes      int64  `json:"wal_bytes"`
	WALGenRecords uint64 `json:"wal_gen_records"`
	// Flushes and Syncs count group commits and the fsyncs they issued.
	Flushes uint64 `json:"flushes"`
	Syncs   uint64 `json:"syncs"`
	// Compactions counts completed snapshot compactions;
	// CompactFailures counts attempts that failed (the WAL keeps
	// growing until one succeeds) and CompactErr is the most recent
	// failure. CompactReasons breaks completed compactions down by
	// what triggered them (timer, wal-bytes, wal-records, manual) and
	// LastCompactReason is the most recent trigger.
	Compactions       uint64            `json:"compactions"`
	CompactFailures   uint64            `json:"compact_failures"`
	CompactErr        string            `json:"compact_error,omitempty"`
	CompactReasons    map[string]uint64 `json:"compactions_by_reason,omitempty"`
	LastCompactReason string            `json:"last_compact_reason,omitempty"`
	// Dropped counts records discarded because the store had already
	// failed or closed.
	Dropped uint64 `json:"dropped_records"`
	// Err is the sticky I/O error, if the store has failed.
	Err string `json:"error,omitempty"`
	// FsyncNs summarizes the latency of each WAL fsync — the tail of
	// this distribution IS the durability window's real-world floor,
	// whatever FlushInterval promises.
	FsyncNs telemetry.Summary `json:"fsync_ns"`
	// CompactionNs summarizes the duration of completed compactions.
	CompactionNs telemetry.Summary `json:"compaction_ns"`
}

// Store is the on-disk half of a persistent registry: one directory
// holding the newest snapshot plus the WAL generations above it.
//
// Log appends are asynchronous group commits: Append enqueues into an
// in-memory buffer and returns; a background flusher writes and fsyncs
// the batch every FlushInterval (or sooner under load). Sync forces a
// commit, Close performs a final one. Append never blocks on the disk,
// so it is safe to call under the registry's write lock — which is
// exactly where the caller invokes it, to keep per-id log order
// identical to apply order.
//
// Store is safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	lock *os.File // exclusive flock on the directory; nil where unsupported

	// ioMu serializes file writes, fsyncs, and WAL rotation; mu guards
	// the append buffer and active-file pointer and is never held
	// across I/O, so appends stay wait-free with respect to the disk.
	ioMu  sync.Mutex
	dirty bool // file bytes written but not fsynced; guarded by ioMu

	mu      sync.Mutex
	walFile *os.File
	gen     uint64
	buf     []byte // pending framed records
	swap    []byte // previous buffer, recycled each flush
	scratch []byte // LogUpsert's encode scratch
	pending int
	err     error
	closed  bool

	walRecords    atomic.Uint64
	walBytes      atomic.Int64
	walGenRecords atomic.Uint64
	flushes       atomic.Uint64
	syncs         atomic.Uint64
	compactions   atomic.Uint64
	compactErrs   atomic.Uint64
	dropped       atomic.Uint64

	// fsyncLat times each WAL fsync; compactDur each completed
	// compaction (snapshot write included).
	fsyncLat   *telemetry.Histogram
	compactDur *telemetry.Histogram

	compactErrMu      sync.Mutex
	lastCompactErr    string
	lastCompactReason string
	compactReasons    map[string]uint64

	compactMu sync.Mutex
	recovery  RecoveryStats
	// quarantineErr is the typed cause of the first WAL quarantine.
	quarantineErr error

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the store directory, recovers the
// persisted state — newest readable snapshot plus replayed WAL tail —
// and returns it as one full Capture: the live entries sorted by id,
// the last persisted sequence and epoch, and the removal knowledge
// (snapshot ring plus replayed removals, sorted by sequence). The
// snapshot stays the id-ordered slice loadSnapshot returns, the tail is
// replayed into a map of the ids it touches, and one pass merges the
// two: an entry the tail never mentions is neither hashed nor sorted
// again. The returned
// store is ready for logging; pair every recovered mutation stream with
// exactly one writer, as concurrent stores on one directory corrupt
// each other.
func Open(dir string, opts Options) (*Store, Capture, error) {
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Capture{}, fmt.Errorf("persist: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, Capture{}, err
	}
	ok := false
	defer func() {
		if !ok && lock != nil {
			_ = lock.Close()
		}
	}()
	// Sweep temp snapshots leaked by a crash mid-compaction (the rename
	// never happened, so they are garbage no recovery path reads).
	if tmps, err := filepath.Glob(filepath.Join(dir, "snap-*.tmp")); err == nil {
		for _, tmp := range tmps {
			_ = os.Remove(tmp)
		}
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, Capture{}, err
	}
	s := &Store{
		dir:            dir,
		opts:           opts,
		lock:           lock,
		compactReasons: make(map[string]uint64),
		fsyncLat:       telemetry.NewHistogram(),
		compactDur:     telemetry.NewHistogram(),
		kick:           make(chan struct{}, 1),
		done:           make(chan struct{}),
	}

	// Load the newest snapshot that verifies; fall back generation by
	// generation on corruption (possible only through media faults —
	// compaction publishes snapshots atomically). If snapshots exist
	// but none verifies, opening must fail: proceeding would silently
	// "recover" only the last WAL generation's mutations and present a
	// near-empty registry as a successful warm restart.
	var rec Capture // the snapshot loaded, then the state recovered
	baseGen := uint64(0)
	loadedSnap := len(snaps) == 0
	for i := len(snaps) - 1; i >= 0; i-- {
		sc, err := loadSnapshot(dir, snaps[i])
		if errors.Is(err, ErrFormat) {
			return nil, Capture{}, err
		}
		if err != nil {
			s.recovery.CorruptSnapshots++
			continue
		}
		rec = sc
		baseGen = snaps[i]
		s.recovery.SnapshotGen = baseGen
		s.recovery.SnapshotEntries = len(sc.Entries)
		loadedSnap = true
		break
	}
	if !loadedSnap {
		return nil, Capture{}, fmt.Errorf("persist: every snapshot in %s failed verification; refusing to open with partial state (restore the directory from backup, or delete the snap-*.ncs files to start from the WAL alone)", dir)
	}

	// Replay every WAL generation at or above the snapshot, in order.
	// Generations below it are fully contained in the snapshot. touched
	// holds, for each id the tail mentions, the entry of its last upsert,
	// or nil when a removal or eviction came last.
	touched := make(map[string]*Entry)
	apply := func(ev wire.Event) {
		if len(snaps) == 0 && rec.Seq == 0 {
			// No snapshot: removal knowledge starts at the first
			// record the WAL holds. Compaction may have pruned the
			// generations below it, so nothing earlier is known.
			rec.TombstoneFloor = ev.Seq - 1
		}
		rec.Seq = max(rec.Seq, ev.Seq)
		rec.Epoch = max(rec.Epoch, ev.Epoch)
		switch ev.Op {
		case wire.OpUpsert:
			touched[ev.Entry.ID] = &ev.Entry
		case wire.OpRemove:
			touched[ev.ID] = nil
			rec.Tombstones = append(rec.Tombstones, Tombstone{Seq: ev.Seq, ID: ev.ID})
		case wire.OpEvict:
			for _, id := range ev.IDs {
				touched[id] = nil
				rec.Tombstones = append(rec.Tombstones, Tombstone{Seq: ev.Seq, ID: id})
			}
		}
	}
	activeGen := baseGen
	if activeGen == 0 {
		activeGen = 1
	}
	var activeRep walReplay
	activeExists := false
	for _, gen := range wals {
		if gen < baseGen {
			continue
		}
		rep, err := replayWAL(walPath(dir, gen), gen, apply)
		if err != nil {
			return nil, Capture{}, err
		}
		if rep.corrupt {
			// Media damage inside the durable prefix: quarantine the
			// damaged file aside and rewrite its valid prefix in place,
			// so a later restart replays the same clean prefix instead
			// of tripping over the rot again. Replay of this generation
			// already stopped at the bad record; later generations are
			// still applied — their records are newer last-write-wins
			// state.
			if err := quarantineWAL(walPath(dir, gen), rep.validSize); err != nil {
				return nil, Capture{}, err
			}
			s.recovery.QuarantinedWALs++
			if s.quarantineErr == nil {
				s.quarantineErr = rep.corruptErr
			}
			rep.tornBytes = 0 // the damage is quarantined, not discarded
		}
		s.recovery.WALFiles++
		s.recovery.WALRecords += rep.records
		s.recovery.TornBytes += rep.tornBytes
		if gen >= activeGen {
			activeGen = gen
			activeRep = rep
			activeExists = true
		}
	}

	// Open the newest generation for append (truncating any torn
	// tail), or start a fresh one.
	if activeExists && activeRep.validSize >= walHeaderSize {
		f, err := openWALForAppend(walPath(dir, activeGen), activeRep.validSize)
		if err != nil {
			return nil, Capture{}, err
		}
		s.walFile = f
		s.walBytes.Store(activeRep.validSize)
	} else {
		f, err := createWAL(dir, activeGen)
		if err != nil {
			return nil, Capture{}, err
		}
		s.walFile = f
		s.walBytes.Store(walHeaderSize)
	}
	s.gen = activeGen
	s.removeObsolete(baseGen)

	// Merge in place. What the loop leaves in touched was never in the
	// snapshot, and only such an addition can break the id order.
	out := rec.Entries[:0]
	for _, e := range rec.Entries {
		if t, ok := touched[e.ID]; ok {
			delete(touched, e.ID)
			if t == nil {
				continue
			}
			e = *t
		}
		out = append(out, e)
	}
	merged := len(out)
	for _, t := range touched {
		if t != nil {
			out = append(out, *t)
		}
	}
	if len(out) > merged {
		slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
	}
	rec.Entries = out
	s.recovery.Entries = len(out)
	s.recovery.LastSeq = rec.Seq
	s.recovery.LastEpoch = rec.Epoch

	// Snapshot tombstones and replayed removal records overlap around
	// the rotation boundary (records logged between rotation and capture
	// appear in both); sort by sequence and drop exact duplicates so the
	// installed ring stays ordered — floor accounting in the feed
	// depends on overwrite order matching sequence order.
	tombs := rec.Tombstones
	sort.Slice(tombs, func(i, j int) bool {
		if tombs[i].Seq != tombs[j].Seq {
			return tombs[i].Seq < tombs[j].Seq
		}
		return tombs[i].ID < tombs[j].ID
	})
	dedup := tombs[:0]
	for i, t := range tombs {
		if i > 0 && t == tombs[i-1] {
			continue
		}
		dedup = append(dedup, t)
	}
	rec.Tombstones = dedup
	s.recovery.TombstoneFloor = rec.TombstoneFloor
	s.recovery.Tombstones = len(dedup)

	s.wg.Add(1)
	go s.flusher()
	ok = true
	return s, rec, nil
}

// Recovery reports what Open reconstructed.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// QuarantineErr returns the typed cause of the first WAL quarantine
// performed at Open (nil if none); errors.Is(err, ErrCorruptRecord)
// holds when set.
func (s *Store) QuarantineErr() error { return s.quarantineErr }

// quarantineWAL renames a corrupt WAL file aside (appending .corrupt,
// which scanDir ignores) and rewrites its valid prefix at the original
// path, so the clean records stay replayable on the next restart while
// the damaged bytes are preserved for forensics.
func quarantineWAL(path string, validSize int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: quarantine read: %w", err)
	}
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return fmt.Errorf("persist: quarantine rename: %w", err)
	}
	if validSize > int64(len(data)) {
		validSize = int64(len(data))
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: quarantine rewrite: %w", err)
	}
	if _, err := f.Write(data[:validSize]); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: quarantine rewrite: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: quarantine sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: quarantine close: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// Stats snapshots operational counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	gen := s.gen
	err := s.err
	s.mu.Unlock()
	st := StoreStats{
		Gen:             gen,
		WALRecords:      s.walRecords.Load(),
		WALBytes:        s.walBytes.Load(),
		WALGenRecords:   s.walGenRecords.Load(),
		Flushes:         s.flushes.Load(),
		Syncs:           s.syncs.Load(),
		Compactions:     s.compactions.Load(),
		CompactFailures: s.compactErrs.Load(),
		Dropped:         s.dropped.Load(),
		FsyncNs:         s.fsyncLat.Summary(),
		CompactionNs:    s.compactDur.Summary(),
	}
	s.compactErrMu.Lock()
	st.CompactErr = s.lastCompactErr
	st.LastCompactReason = s.lastCompactReason
	if len(s.compactReasons) > 0 {
		st.CompactReasons = make(map[string]uint64, len(s.compactReasons))
		for k, v := range s.compactReasons {
			st.CompactReasons[k] = v
		}
	}
	s.compactErrMu.Unlock()
	if err != nil {
		st.Err = err.Error()
	}
	return st
}

// Err returns the sticky I/O error, if the store has failed.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Append enqueues one mutation's wire frame — the bytes its change
// event already carries — for the next group commit; the store adds
// only its length+CRC envelope. A record the log cannot hold (no
// frame, an oversized one, or a store that already failed or closed)
// is dropped and counted: an unreadable record would read back as
// corruption and sever the log there, so dropping only it is the
// lesser evil. Durability reporting is the flusher's job.
func (s *Store) Append(frame []byte) {
	s.mu.Lock()
	s.appendLocked(frame)
}

// LogUpsert encodes and appends an upsert of e at change-stream
// sequence seq under fencing epoch — for callers that hold an entry
// rather than a published event.
func (s *Store) LogUpsert(e Entry, seq, epoch uint64) {
	ev := wire.Event{Op: wire.OpUpsert, Seq: seq, Epoch: epoch, Entry: e}
	s.mu.Lock()
	frame, err := ev.AppendFrameTo(s.scratch[:0])
	s.scratch = frame[:0]
	if err != nil {
		frame = nil
	}
	s.appendLocked(frame)
}

// appendLocked frames one record into the pending buffer and releases
// s.mu, which the caller holds.
func (s *Store) appendLocked(frame []byte) {
	if s.err != nil || s.closed || len(frame) == 0 || len(frame) > maxRecordSize {
		s.mu.Unlock()
		s.dropped.Add(1)
		return
	}
	s.buf = appendFrame(s.buf, frame)
	s.pending++
	needKick := s.pending >= flushBatch
	s.mu.Unlock()
	if needKick {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// flusher group-commits pending records until Close.
func (s *Store) flusher() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		case <-s.kick:
		}
		_ = s.Sync()
	}
}

// Sync forces a group commit: every record appended before the call is
// written and fsynced when it returns.
func (s *Store) Sync() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.flushLocked()
}

// flushLocked writes and fsyncs the pending buffer. Caller holds ioMu.
// Records discarded on any failure path are added to the Dropped
// counter — the operator's signal for how much a disk fault lost.
func (s *Store) flushLocked() error {
	s.mu.Lock()
	data := s.buf
	n := s.pending
	f := s.walFile
	serr := s.err
	s.buf = s.swap[:0]
	s.swap = data
	s.pending = 0
	s.mu.Unlock()
	if serr != nil {
		// Records enqueued by appends that raced the failure are
		// unwritable now; count them instead of vanishing them.
		if n > 0 {
			s.dropped.Add(uint64(n))
		}
		return serr
	}
	if f == nil {
		if n > 0 {
			s.dropped.Add(uint64(n))
		}
		return ErrClosed
	}
	if len(data) > 0 {
		if _, err := f.Write(data); err != nil {
			s.dropped.Add(uint64(n))
			return s.fail(fmt.Errorf("persist: wal write: %w", err))
		}
		s.walBytes.Add(int64(len(data)))
		s.dirty = true
	}
	if s.dirty {
		syncStart := time.Now()
		if err := f.Sync(); err != nil {
			// Page-cache bytes that never reached the platter are lost
			// records, not written ones: they belong in Dropped.
			s.dropped.Add(uint64(n))
			return s.fail(fmt.Errorf("persist: wal sync: %w", err))
		}
		s.fsyncLat.Observe(time.Since(syncStart).Nanoseconds())
		s.syncs.Add(1)
	}
	s.dirty = false
	// Only now — after the batch is durable — does it count as written.
	if n > 0 {
		s.walRecords.Add(uint64(n))
		s.walGenRecords.Add(uint64(n))
		s.flushes.Add(1)
	}
	return nil
}

// fail records the first I/O error; the store stops accepting records
// (they are counted as dropped) but stays safe to query and close.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	err = s.err
	s.mu.Unlock()
	return err
}

// Compact rotates the WAL to a fresh generation, captures the caller's
// full current state, writes it as the new snapshot, and deletes the
// generations it obsoletes. reason names what triggered the compaction
// (timer, wal-bytes, wal-records, manual) and is recorded in Stats.
//
// capture MUST return the owner's live state as of some point after
// Compact was entered, together with the change-stream sequence read
// immediately BEFORE that state was captured — for a registry, the
// feed sequence then a plain Snapshot call. Reading the sequence first
// makes the state a superset of the stream at that sequence, so
// replaying records above it converges exactly. The
// rotation-before-capture order is the crash-safety invariant: every
// record in older generations describes a mutation applied before the
// capture, so the snapshot subsumes them, and the new generation's
// records replay idempotently over it. The capture also carries the
// stream's fencing epoch and tombstone ring, which persist in the
// snapshot so promotion and delta re-bootstraps survive restarts.
func (s *Store) Compact(reason string, capture func() (Capture, error)) error {
	err := s.compact(capture)
	s.compactErrMu.Lock()
	if err != nil {
		s.lastCompactErr = err.Error()
	} else {
		s.lastCompactReason = reason
		s.compactReasons[reason]++
	}
	s.compactErrMu.Unlock()
	if err != nil {
		s.compactErrs.Add(1)
	}
	return err
}

func (s *Store) compact(capture func() (Capture, error)) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()

	// Rotate: drain and fsync the old generation, then switch appends
	// to the new one.
	s.ioMu.Lock()
	if err := s.flushLocked(); err != nil {
		s.ioMu.Unlock()
		return err
	}
	s.mu.Lock()
	newGen := s.gen + 1
	s.mu.Unlock()
	f, err := createWAL(s.dir, newGen)
	if err != nil {
		s.ioMu.Unlock()
		return err
	}
	s.mu.Lock()
	old := s.walFile
	s.walFile = f
	s.gen = newGen
	s.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	s.walBytes.Store(walHeaderSize)
	s.walGenRecords.Store(0)
	s.ioMu.Unlock()

	captured, err := capture()
	if err != nil {
		// The WAL rotated but no snapshot was written; recovery simply
		// replays both generations, so nothing is lost.
		return fmt.Errorf("persist: compaction capture: %w", err)
	}
	if err := writeSnapshot(s.dir, newGen, captured); err != nil {
		return err
	}
	s.removeObsolete(newGen)
	s.compactions.Add(1)
	s.compactDur.Observe(time.Since(start).Nanoseconds())
	return nil
}

// removeObsolete deletes snapshot and WAL generations strictly below
// keepGen. Removal failures are ignored: stale generations are retried
// at the next compaction and never affect correctness.
func (s *Store) removeObsolete(keepGen uint64) {
	snaps, wals, err := scanDir(s.dir)
	if err != nil {
		return
	}
	for _, gen := range snaps {
		if gen < keepGen {
			_ = os.Remove(snapPath(s.dir, gen))
		}
	}
	for _, gen := range wals {
		if gen < keepGen {
			_ = os.Remove(walPath(s.dir, gen))
		}
	}
}

// Close performs a final group commit and releases the WAL file. The
// store accepts no records afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.err
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()

	s.ioMu.Lock()
	err := s.flushLocked()
	s.mu.Lock()
	f := s.walFile
	s.walFile = nil
	s.mu.Unlock()
	s.ioMu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("persist: close wal: %w", cerr)
		}
	}
	if s.lock != nil {
		_ = s.lock.Close() // releases the directory flock
	}
	return err
}
