package netcoord

import (
	"errors"
	"fmt"

	"netcoord/internal/changefeed"
	"netcoord/internal/wire"
)

// DefaultChangeStreamBuffer is the change-stream ring size used when a
// component that requires the stream (PersistentRegistry, ncserve) is
// built without an explicit RegistryConfig.ChangeStreamBuffer.
const DefaultChangeStreamBuffer = 4096

// ErrChangeStreamDisabled is returned by change-stream methods on a
// registry built without RegistryConfig.ChangeStreamBuffer.
var ErrChangeStreamDisabled = errors.New("netcoord: change stream disabled (set RegistryConfig.ChangeStreamBuffer)")

// ErrChangeHistoryTruncated is returned by ChangesSince when the
// requested resume point is older than the retained history — the
// in-memory ring for a plain Registry, the ring plus the WAL for a
// PersistentRegistry. The consumer must re-bootstrap from a snapshot
// (SnapshotWithSeq, or ncserve's /snapshot) instead of resuming.
var ErrChangeHistoryTruncated = errors.New("netcoord: change history truncated; re-bootstrap from a snapshot")

// Change-stream operations: the values of ChangeEvent.Op.
const (
	// ChangeUpsert inserts or refreshes the event's Entry.
	ChangeUpsert = wire.OpUpsert
	// ChangeRemove deletes the event's ID.
	ChangeRemove = wire.OpRemove
	// ChangeEvict deletes every id in the event's IDs (TTL eviction).
	ChangeEvict = wire.OpEvict
)

// ChangeEvent is one sequenced registry mutation, as the registry
// publishes it, the WAL logs it, followers apply it and the serving
// layer renders it: the stack has one record type, and this is its
// public name. Sequence numbers are dense and monotonic — a consumer
// holding everything through sequence N resumes with since=N and
// misses nothing. Upserts carry Entry, removes ID, evictions IDs; an
// event that came out of a registry also carries its encoded binary
// frame (AppendFrameTo), which every tier stores and forwards verbatim.
// Its JSON form is the /changes body's event object.
type ChangeEvent = wire.Event

// ChangeSource is the seam between a registry's change stream and
// anything that serves it: the read-then-subscribe bootstrap pair
// (SnapshotWithSeq), history replay (ChangesSince), live delivery
// (SubscribeChanges), and position/health (ChangeSeq, ChangeStreamStats).
//
// Every registry flavor satisfies it with the same code, because every
// flavor has exactly one feed — its embedded Registry's:
//
//   - *Registry serves its own in-memory stream (history is the ring).
//   - *PersistentRegistry extends history through the WAL on disk; it
//     overrides ChangesSince and nothing else.
//   - *FollowerRegistry overrides nothing: its Registry's feed carries
//     the *leader's* sequence space, each relayed event published under
//     the sequence and frame it arrived with — so a replica re-serves
//     /changes, /watch, and /snapshot with the same sequence numbers
//     the leader would, and replicas stack into fan-out tiers (a
//     follower can follow a follower).
//
// The contract: sequences are dense and monotonic within a stream's
// lifetime; SnapshotWithSeq and DeltaSince are exact — state and stream
// change together under the registry's write lock and both calls read
// under its read lock, so the entries returned are the stream's state
// at the seq returned, no entry newer than it, on a leader and on a
// replica mid-re-bootstrap alike; ChangesSince returns
// ErrChangeHistoryTruncated when the resume point predates retained
// history, and the consumer re-bootstraps from SnapshotWithSeq.
type ChangeSource interface {
	// ChangeSeq is the sequence of the most recent mutation.
	ChangeSeq() uint64
	// ChangeEpoch is the stream's current fencing epoch: bumped on
	// every promotion, persisted, and carried by every event, so
	// consumers can refuse a deposed leader's stale stream.
	ChangeEpoch() uint64
	// ChangesSince returns up to max events with sequence > since,
	// oldest first (max <= 0 means no limit).
	ChangesSince(since uint64, max int) ([]ChangeEvent, error)
	// SubscribeChanges attaches a bounded live subscriber.
	SubscribeChanges(buffer int) (*ChangeSubscription, error)
	// SnapshotWithSeq captures every live entry plus the stream
	// sequence to resume from.
	SnapshotWithSeq() ([]RegistryEntry, uint64)
	// DeltaSince captures the delta-snapshot triple in one call: the
	// live entries whose last mutation has sequence > since (provable
	// at any depth — entries carry their sequence), the ids removed
	// since then, and the sequence to resume from. ok is false when
	// removal-completeness cannot be proven (tombstone knowledge
	// truncated) and only a full snapshot is safe. One method rather
	// than three reads so the triple is one read-lock hold: exact, and
	// atomic against state rewrites (a follower's re-bootstrap).
	DeltaSince(since uint64) (entries []RegistryEntry, removed []string, seq uint64, ok bool)
	// ChangeStreamStats snapshots the stream's operational counters.
	ChangeStreamStats() ChangeStreamStats
}

// The three registry flavors all satisfy ChangeSource.
var (
	_ ChangeSource = (*Registry)(nil)
	_ ChangeSource = (*PersistentRegistry)(nil)
	_ ChangeSource = (*FollowerRegistry)(nil)
)

// ChangeStreamStats is an operational snapshot of a registry's change
// stream: whether it exists at all, and the feed's own counters.
type ChangeStreamStats struct {
	// Enabled reports whether the stream exists at all.
	Enabled bool `json:"enabled"`
	changefeed.Stats
}

// ChangeSeq returns the sequence number of the most recent mutation
// (0 if nothing has mutated), or 0 with the stream disabled. A client
// that reads state and then subscribes with since=ChangeSeq observes
// every later mutation with no gap — the race-free read-then-follow
// handshake. On a replica it is the position in the leader's sequence
// space: hand it to an upstream's /changes to continue exactly there.
func (r *Registry) ChangeSeq() uint64 {
	if r.feed == nil {
		return 0
	}
	return r.feed.Seq()
}

// ChangeEpoch returns the stream's current fencing epoch (0 with the
// stream disabled, or before any promotion has ever happened).
func (r *Registry) ChangeEpoch() uint64 {
	if r.feed == nil {
		return 0
	}
	return r.feed.Epoch()
}

// ChangeStreamStats snapshots the change stream's counters; Enabled is
// false (and the rest zero) when the stream is disabled.
func (r *Registry) ChangeStreamStats() ChangeStreamStats {
	if r.feed == nil {
		return ChangeStreamStats{}
	}
	return ChangeStreamStats{Enabled: true, Stats: r.feed.Stats()}
}

// ChangesSince returns up to max events with sequence > since, oldest
// first, from the in-memory ring (max <= 0 means no limit). It returns
// ErrChangeHistoryTruncated when the ring no longer reaches back to
// since+1; a PersistentRegistry extends this with WAL replay before
// giving up — use its method when one is available.
func (r *Registry) ChangesSince(since uint64, max int) ([]ChangeEvent, error) {
	if r.feed == nil {
		return nil, ErrChangeStreamDisabled
	}
	evs, err := r.feed.Since(since, max)
	if errors.Is(err, changefeed.ErrTruncated) {
		return nil, fmt.Errorf("%w (ring starts at %d, requested %d)", ErrChangeHistoryTruncated, r.feed.OldestBuffered(), since+1)
	}
	return evs, err
}

// SnapshotWithSeq captures every live entry together with the stream
// sequence, in one hold of the read lock — the bootstrap pair for a
// replica: apply the entries, then resume the stream with since=seq.
// The pair is exact: mutations publish and store under the write lock,
// so the entries are the stream's state at seq and none is newer.
func (r *Registry) SnapshotWithSeq() ([]RegistryEntry, uint64) {
	r.mu.RLock()
	seq := r.ChangeSeq()
	found := r.collectLocked(nil)
	r.mu.RUnlock()
	return sortedByID(found), seq
}

// EntriesChangedSince returns every live entry whose last mutation has
// sequence > since, sorted by id. Unlike replaying history, this scans
// current state — O(n) in registry size but provable no matter how far
// back since reaches, because each entry carries the sequence that
// produced it. Paired with RemovedSince it forms the delta-snapshot
// bootstrap (DeltaSince reads both under one lock hold): apply the
// removals, then these entries, then resume the stream, transferring
// only what changed.
func (r *Registry) EntriesChangedSince(since uint64) []RegistryEntry {
	r.mu.RLock()
	found := r.collectLocked(func(e RegistryEntry) bool { return e.Seq > since })
	r.mu.RUnlock()
	return sortedByID(found)
}

// RemovedSince lists the ids removed (or evicted) with sequence >
// since, and whether the list is provably complete. False means the
// tombstone ring has forgotten removals at or before since, and only a
// full snapshot can guarantee deleted entries do not survive on the
// consumer.
func (r *Registry) RemovedSince(since uint64) ([]string, bool) {
	if r.feed == nil {
		return nil, false
	}
	return r.feed.RemovedSince(since)
}

// DeltaSince assembles the delta-snapshot triple in one hold of the
// read lock, so it is as exact as SnapshotWithSeq: seq, the removals in
// (since, seq] and the live entries changed in (since, seq], with no
// mutation — and no re-bootstrap rewrite — between the three reads.
func (r *Registry) DeltaSince(since uint64) (entries []RegistryEntry, removed []string, seq uint64, ok bool) {
	if r.feed == nil {
		return nil, nil, 0, false
	}
	r.mu.RLock()
	if seq = r.feed.Seq(); since <= seq { // a since from the future: don't guess
		removed, ok = r.feed.RemovedSince(since)
	}
	if ok {
		entries = r.collectLocked(func(e RegistryEntry) bool { return e.Seq > since })
	}
	r.mu.RUnlock()
	if !ok {
		return nil, nil, 0, false
	}
	return sortedByID(entries), removed, seq, true
}

// ChangeSubscription delivers every change event published after
// JoinSeq, in sequence order: prev.Seq+1 == ev.Seq. Receive from C; the
// channel closes when the subscription or the registry is closed. A
// subscriber that cannot keep up loses events rather than slowing
// mutations — any gap in Seq is loss (Dropped counts it); repair it
// with ChangesSince. JoinSeq is the stream sequence at attach time;
// Close detaches it and is safe to call repeatedly and concurrently.
// The channel also closes when a replica re-bootstraps from a full
// snapshot or a delta (its ring no longer connects to the rewritten
// state): re-subscribe and resynchronize from current state.
type ChangeSubscription = changefeed.Subscription

// SubscribeChanges attaches a subscriber buffering up to buffer events
// (minimum 1). The subscription observes every event with sequence >
// JoinSeq; fetch history at or before JoinSeq with ChangesSince — the
// split is what makes catch-up-then-follow race-free.
func (r *Registry) SubscribeChanges(buffer int) (*ChangeSubscription, error) {
	if r.feed == nil {
		return nil, ErrChangeStreamDisabled
	}
	return r.feed.Subscribe(buffer), nil
}
