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
// Three implementations exist, and a serving layer written against the
// interface works identically over all of them:
//
//   - *Registry serves its own in-memory stream (history is the ring).
//   - *PersistentRegistry extends history through the WAL on disk.
//   - *FollowerRegistry relays its leader's stream in the *leader's*
//     sequence space — so a replica re-serves /changes, /watch, and
//     /snapshot with the same sequence numbers the leader would, and
//     replicas stack into fan-out tiers (a follower can follow a
//     follower).
//
// The contract shared by all three: sequences are dense and monotonic
// within a stream's lifetime; SnapshotWithSeq's entries are a superset
// of the state at its seq (replaying events above seq over them
// converges exactly, because events are per-id last-write-wins);
// ChangesSince returns ErrChangeHistoryTruncated when the resume point
// predates retained history, and the consumer re-bootstraps from
// SnapshotWithSeq.
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
	// than three reads so an implementation can make the triple
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
// stream.
type ChangeStreamStats struct {
	// Enabled reports whether the stream exists at all.
	Enabled bool `json:"enabled"`
	// Seq is the last assigned sequence number.
	Seq uint64 `json:"seq"`
	// Published counts events published by this process.
	Published uint64 `json:"published"`
	// Subscribers is the live subscription count.
	Subscribers int `json:"subscribers"`
	// Overflows counts events dropped to full subscriber buffers.
	Overflows uint64 `json:"overflows"`
	// OldestSeq is the oldest event still in the catch-up ring.
	OldestSeq uint64 `json:"oldest_seq"`
	// RingLen is the ring's current occupancy (live events buffered);
	// RingCap is its capacity.
	RingLen int `json:"ring_len"`
	RingCap int `json:"ring_cap"`
	// TombLen/TombCap are the tombstone ring's occupancy and capacity,
	// and TombFloor is the sequence below which removal knowledge is
	// incomplete (delta snapshots from at or below it must fall back to
	// full transfers).
	TombLen   int    `json:"tomb_len"`
	TombCap   int    `json:"tomb_cap"`
	TombFloor uint64 `json:"tomb_floor"`
	// Epoch is the stream's current fencing epoch; RejectedStaleEpoch
	// counts events refused because they carried a lower one (a deposed
	// leader still writing after a promotion).
	Epoch              uint64 `json:"epoch"`
	RejectedStaleEpoch uint64 `json:"rejected_stale_epoch"`
}

// ChangeSeq returns the sequence number of the most recent mutation
// (0 if nothing has mutated), or 0 with the stream disabled. A client
// that reads state and then subscribes with since=ChangeSeq observes
// every later mutation with no gap — the race-free read-then-follow
// handshake.
func (r *Registry) ChangeSeq() uint64 {
	feed := r.getFeed()
	if feed == nil {
		return 0
	}
	return feed.Seq()
}

// ChangeEpoch returns the stream's current fencing epoch (0 with the
// stream disabled, or before any promotion has ever happened).
func (r *Registry) ChangeEpoch() uint64 {
	feed := r.getFeed()
	if feed == nil {
		return 0
	}
	return feed.Epoch()
}

// ChangeStreamStats snapshots the change stream's counters; Enabled is
// false (and the rest zero) when the stream is disabled.
func (r *Registry) ChangeStreamStats() ChangeStreamStats {
	return feedStreamStats(r.getFeed())
}

// feedStreamStats converts a feed's counters to the public form;
// shared by the registry's own stream and a follower's relay.
func feedStreamStats(feed *changefeed.Feed) ChangeStreamStats {
	if feed == nil {
		return ChangeStreamStats{}
	}
	st := feed.Stats()
	return ChangeStreamStats{
		Enabled:            true,
		Seq:                st.Seq,
		Published:          st.Published,
		Subscribers:        st.Subscribers,
		Overflows:          st.Overflows,
		OldestSeq:          st.OldestSeq,
		RingLen:            st.RingLen,
		RingCap:            st.RingCap,
		TombLen:            st.TombLen,
		TombCap:            st.TombCap,
		TombFloor:          st.TombFloor,
		Epoch:              st.Epoch,
		RejectedStaleEpoch: st.RejectedStaleEpoch,
	}
}

// ChangesSince returns up to max events with sequence > since, oldest
// first, from the in-memory ring (max <= 0 means no limit). It returns
// ErrChangeHistoryTruncated when the ring no longer reaches back to
// since+1; a PersistentRegistry extends this with WAL replay before
// giving up — use its method when one is available.
func (r *Registry) ChangesSince(since uint64, max int) ([]ChangeEvent, error) {
	feed := r.getFeed()
	if feed == nil {
		return nil, ErrChangeStreamDisabled
	}
	return feedChangesSince(feed, since, max, "ring")
}

// feedChangesSince serves a resume from a feed's ring, mapping
// truncation to the public error; shared by the registry's own
// stream and a follower's relay (label distinguishes them in the
// message).
func feedChangesSince(feed *changefeed.Feed, since uint64, max int, label string) ([]ChangeEvent, error) {
	evs, err := feed.Since(since, max)
	if errors.Is(err, changefeed.ErrTruncated) {
		return nil, fmt.Errorf("%w (%s starts at %d, requested %d)", ErrChangeHistoryTruncated, label, feed.OldestBuffered(), since+1)
	}
	return evs, err
}

// SnapshotWithSeq captures every live entry together with the stream
// sequence read immediately before the capture — the bootstrap pair
// for a replica: apply the entries, then resume the stream with
// since=seq. The entries are a superset of the state at seq, and
// replaying events above seq over them converges exactly because
// events are per-id last-write-wins.
func (r *Registry) SnapshotWithSeq() ([]RegistryEntry, uint64) {
	seq := r.ChangeSeq()
	return r.Snapshot(), seq
}

// EntriesChangedSince returns every live entry whose last mutation has
// sequence > since, sorted by id. Unlike replaying history, this scans
// current state — O(n) in registry size but provable no matter how far
// back since reaches, because each entry carries the sequence that
// produced it. Paired with RemovedSince it forms the delta-snapshot
// bootstrap: apply the removals, then these entries, then resume the
// stream — the same superset-then-replay convergence as a full
// snapshot, transferring only what changed.
func (r *Registry) EntriesChangedSince(since uint64) []RegistryEntry {
	return r.sortedEntries(func(e RegistryEntry) bool { return e.Seq > since })
}

// RemovedSince lists the ids removed (or evicted) with sequence >
// since, and whether the list is provably complete. False means the
// tombstone ring has forgotten removals at or before since, and only a
// full snapshot can guarantee deleted entries do not survive on the
// consumer.
func (r *Registry) RemovedSince(since uint64) ([]string, bool) {
	feed := r.getFeed()
	if feed == nil {
		return nil, false
	}
	return feed.RemovedSince(since)
}

// DeltaSince assembles the delta-snapshot triple. Ordering makes it
// safe under concurrent mutation: seq first, then removals, then the
// changed live entries — anything mutated mid-read is delivered at its
// newest state (newer than seq) and the resuming stream replays its
// later events over it, the same superset-then-replay convergence
// SnapshotWithSeq gives.
func (r *Registry) DeltaSince(since uint64) (entries []RegistryEntry, removed []string, seq uint64, ok bool) {
	return assembleDelta(since, r.ChangeSeq(), r.RemovedSince, r.EntriesChangedSince)
}

// assembleDelta builds the delta-snapshot triple from a stream
// position, a removal source, and an entry scanner; shared by the
// registry's own stream and a follower's relay (which wraps it in its
// bootstrap lock so the triple is atomic against rewrites).
func assembleDelta(since, seq uint64, removedSince func(uint64) ([]string, bool), changedSince func(uint64) []RegistryEntry) ([]RegistryEntry, []string, uint64, bool) {
	if since > seq {
		return nil, nil, 0, false // a since from the future: don't guess
	}
	removed, ok := removedSince(since)
	if !ok {
		return nil, nil, 0, false
	}
	if removed == nil {
		removed = []string{}
	}
	return changedSince(since), removed, seq, true
}

// ChangeSubscription delivers every change event published after
// JoinSeq, in sequence order: prev.Seq+1 == ev.Seq. Receive from C; the
// channel closes when the subscription or the registry is closed. A
// subscriber that cannot keep up loses events rather than slowing
// mutations — any gap in Seq is loss (Dropped counts it); repair it
// with ChangesSince. JoinSeq is the stream sequence at attach time;
// MarkSignal declares the subscriber a pure wake signal whose overflow
// counts as no loss; Close detaches it and is safe to call repeatedly
// and concurrently.
type ChangeSubscription = changefeed.Subscription

// SubscribeChanges attaches a subscriber buffering up to buffer events
// (minimum 1). The subscription observes every event with sequence >
// JoinSeq; fetch history at or before JoinSeq with ChangesSince — the
// split is what makes catch-up-then-follow race-free.
func (r *Registry) SubscribeChanges(buffer int) (*ChangeSubscription, error) {
	feed := r.getFeed()
	if feed == nil {
		return nil, ErrChangeStreamDisabled
	}
	return feed.Subscribe(buffer), nil
}
