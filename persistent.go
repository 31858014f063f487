package netcoord

import (
	"fmt"
	"sync"
	"time"

	"netcoord/internal/changefeed"
	"netcoord/internal/coord"
	"netcoord/internal/persist"
)

// PersistentRegistryConfig assembles a PersistentRegistry.
type PersistentRegistryConfig struct {
	// Registry configures the in-memory registry being persisted. Its
	// Dimension must fit the coordinate wire format (<= 16).
	Registry RegistryConfig
	// Dir is the data directory holding the snapshot and WAL files. It
	// is created if missing. Exactly one open registry may use a
	// directory at a time.
	Dir string
	// SnapshotInterval is how often the WAL is compacted into a fresh
	// snapshot; 0 means DefaultSnapshotInterval, negative disables the
	// background compactor (call Compact yourself).
	SnapshotInterval time.Duration
	// FlushInterval is the WAL group-commit window: a mutation is
	// durable at most this long after the call that applied it returns.
	// 0 means the persist layer's default (50ms).
	FlushInterval time.Duration
	// CompactWALBytes triggers a compaction as soon as the active WAL
	// generation exceeds this many bytes, independent of the timer, so
	// a write storm cannot grow an unbounded replay tail between ticks.
	// 0 means DefaultCompactWALBytes; negative disables the byte
	// trigger.
	CompactWALBytes int64
	// CompactWALRecords is the same trigger on the active generation's
	// record count. 0 means DefaultCompactWALRecords; negative disables
	// the record trigger.
	CompactWALRecords int64
	// NoSync skips fsync entirely. Only for tests.
	NoSync bool
}

// DefaultSnapshotInterval is the default WAL compaction cadence.
const DefaultSnapshotInterval = 5 * time.Minute

// Default WAL growth bounds: a compaction fires when the active
// generation crosses either, whatever the timer says. Sized so the
// replay tail stays a small multiple of a typical recovery budget
// (~2M records/s replay) while write-idle deployments never compact
// early.
const (
	DefaultCompactWALBytes   = int64(256 << 20)
	DefaultCompactWALRecords = int64(2_000_000)
)

// compactCheckInterval is how often the compactor polls the WAL growth
// triggers; two atomic loads per tick, so the poll is effectively free.
const compactCheckInterval = time.Second

// PersistentRegistry is a Registry whose contents survive restarts. It
// embeds a fully functional Registry — every query and mutation method
// works unchanged, and mutations arriving through any path (Upsert,
// UpsertBatch, Remove, Feed, TTL eviction) are appended to a
// write-ahead log and periodically compacted into a snapshot.
//
// Open recovers the previous state before returning: the newest
// snapshot with the WAL tail replayed on top is loaded in one
// unpublished step that bulk-builds the spatial index in one
// O(n log n) pass. Entry UpdatedAt times are preserved, so TTL
// eviction remains correct across downtime: entries that went stale
// while the service was down age out on the first janitor sweep
// instead of being granted a fresh lease.
//
// Durability is group-committed: the WAL is fsynced every
// FlushInterval, so a hard crash can lose at most that window of
// mutations (a graceful Close loses nothing). Coordinate entries are
// continuously re-published by their nodes, which makes that window an
// easy trade for mutation paths that never block on the disk.
//
// The WAL is for recovery only: history is the ring, as for every
// registry, and a consumer behind it — a restart empties it —
// re-bootstraps.
type PersistentRegistry struct {
	*Registry
	store       *persist.Store
	interval    time.Duration
	maxWALBytes int64
	maxWALRecs  int64

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
	wg        sync.WaitGroup
}

// OpenPersistentRegistry opens the data directory, recovers the
// persisted entries into a new Registry, and starts logging mutations
// and compacting snapshots. Call Close to flush and release it.
func OpenPersistentRegistry(cfg PersistentRegistryConfig) (*PersistentRegistry, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("netcoord: persistent registry: empty data directory")
	}
	dim := cfg.Registry.Dimension
	if dim == 0 {
		dim = DefaultConfig().Dimension
	}
	if dim > coord.MaxDimension {
		return nil, fmt.Errorf("netcoord: persistent registry: dimension %d exceeds persistable maximum %d", dim, coord.MaxDimension)
	}
	interval := cfg.SnapshotInterval
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	maxWALBytes := cfg.CompactWALBytes
	if maxWALBytes == 0 {
		maxWALBytes = DefaultCompactWALBytes
	}
	maxWALRecs := cfg.CompactWALRecords
	if maxWALRecs == 0 {
		maxWALRecs = DefaultCompactWALRecords
	}

	store, recovered, err := persist.Open(cfg.Dir, persist.Options{
		FlushInterval: cfg.FlushInterval,
		NoSync:        cfg.NoSync,
	})
	if err != nil {
		return nil, fmt.Errorf("netcoord: persistent registry: %w", err)
	}
	// Build the registry with its janitor deferred: the stream must sit
	// at the recovered sequence and have its WAL tap before any
	// background goroutine can mutate — an eviction during recovery would
	// otherwise be published with a reused sequence, or not logged at all.
	reg, err := newRegistry(cfg.Registry)
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	// load publishes nothing, so recovered entries are not re-logged into
	// the WAL they came from, and they keep their UpdatedAt and Seq; the
	// empty registry makes it one balanced O(n log n) index build. The
	// stream continues from the last persisted sequence — and the last
	// persisted fencing epoch, so a promoted leader keeps fencing after a
	// restart — with the recovered tombstone ring, which restores removal
	// knowledge for delta re-bootstraps.
	if err := reg.load(&recovered); err != nil {
		reg.Close()
		_ = store.Close()
		return nil, fmt.Errorf("netcoord: persistent registry: recovered state rejected (was the directory written with a different -dim?): %w", err)
	}
	// Only after the tap is in place may the janitor start evicting. The
	// store consumes the stream as a tap: inline under the feed lock
	// (hence under the registry's write lock), so the WAL misses
	// nothing, and cheap, because Append only enqueues the frame the
	// event already carries — the store's flusher owns the disk.
	reg.feed.Tap(func(ev changefeed.Event) { store.Append(ev.Frame()) })
	reg.startJanitor()

	p := &PersistentRegistry{
		Registry:    reg,
		store:       store,
		interval:    interval,
		maxWALBytes: maxWALBytes,
		maxWALRecs:  maxWALRecs,
		done:        make(chan struct{}),
	}
	if interval > 0 {
		p.wg.Add(1)
		go p.compactor()
	}
	return p, nil
}

// compactor folds the WAL into a fresh snapshot every SnapshotInterval,
// and early whenever the active generation's growth crosses the
// byte/record bounds — a write storm is bounded by the trigger, not by
// how much tail can accumulate before the next timer tick.
func (p *PersistentRegistry) compactor() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	check := time.NewTicker(compactCheckInterval)
	defer check.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-ticker.C:
			// Compaction failures (e.g. disk full) must not kill the
			// registry; the WAL keeps growing and the next tick retries.
			_ = p.compactAs("timer")
			ticker.Reset(p.interval)
		case <-check.C:
			if reason, hit := p.walTrigger(); hit {
				if p.compactAs(reason) == nil {
					// A fresh snapshot just landed; push the timer out a
					// full interval so it does not immediately re-compact
					// an empty tail.
					ticker.Reset(p.interval)
				}
			}
		}
	}
}

// walTrigger reports whether the active WAL generation has outgrown
// the configured bounds, and which bound fired.
func (p *PersistentRegistry) walTrigger() (reason string, hit bool) {
	st := p.store.Stats()
	if p.maxWALBytes > 0 && st.WALBytes >= p.maxWALBytes {
		return "wal-bytes", true
	}
	if p.maxWALRecs > 0 && st.WALGenRecords >= uint64(p.maxWALRecs) {
		return "wal-records", true
	}
	return "", false
}

// Compact folds the current WAL into a fresh snapshot now. The
// background compactor calls this on its timer and on WAL growth; it
// is exported for deployments that prefer to schedule compaction
// themselves (e.g. before a planned restart, to make recovery fastest).
func (p *PersistentRegistry) Compact() error { return p.compactAs("manual") }

func (p *PersistentRegistry) compactAs(reason string) error {
	return p.store.Compact(reason, func() (persist.Capture, error) {
		// One hold of the read lock captures entries, sequence, fencing
		// epoch and tombstone ring together, so promotion and delta
		// re-bootstraps survive restarts.
		return p.Registry.SnapshotSince(0), nil
	})
}

// Fence bumps the registry's fencing epoch and rotates the WAL into a
// fresh, epoch-stamped snapshot — the durable half of promoting this
// process to (or re-asserting it as) the authoritative leader. Every
// mutation applied after Fence returns carries the new epoch, so
// streams still flowing from a deposed leader (stuck at the old epoch)
// are rejected by followers and watchers. The compaction is what makes
// the bump durable immediately: a crash right after Fence recovers the
// new epoch from the snapshot instead of reverting to the old one.
func (p *PersistentRegistry) Fence() (uint64, error) {
	epoch := p.Registry.promote()
	if err := p.compactAs("promote"); err != nil {
		return epoch, err
	}
	return epoch, nil
}

// Sync forces a WAL group commit: every mutation applied before the
// call is durable when it returns.
func (p *PersistentRegistry) Sync() error { return p.store.Sync() }

// Recovery reports what Open reconstructed from the data directory.
func (p *PersistentRegistry) Recovery() persist.RecoveryStats { return p.store.Recovery() }

// Err returns the persistence layer's sticky I/O error, if it has
// failed. A failed store keeps the registry serving (availability over
// durability) but mutations are no longer being logged — services
// should surface this to their callers, as ncserve does on every
// mutation response and in /stats.
func (p *PersistentRegistry) Err() error { return p.store.Err() }

// PersistStats snapshots the persistence layer's operational counters.
func (p *PersistentRegistry) PersistStats() persist.StoreStats { return p.store.Stats() }

// Close stops the compactor, the TTL janitor, and any feeds, then
// performs a final WAL commit and releases the data directory. It
// returns the store's sticky I/O error, if persistence had failed.
func (p *PersistentRegistry) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.wg.Wait()
		// Stop the registry's own background work (janitor, feeds)
		// first so no mutations race the final flush.
		p.Registry.Close()
		p.closeErr = p.store.Close()
	})
	return p.closeErr
}
