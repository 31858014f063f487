package netcoord

import (
	"errors"
	"fmt"

	"netcoord/internal/changefeed"
	"netcoord/internal/wire"
)

// DefaultChangeStreamBuffer is the change-stream ring size of a
// registry built with RegistryConfig.ChangeStreamBuffer <= 0 — and so,
// at defaults, how far a server's watch hub may lag before it resyncs.
const DefaultChangeStreamBuffer = 4096

// ErrChangeHistoryTruncated is returned by ChangesSince when the
// requested resume point is older than the in-memory ring, which is all
// the history any registry keeps. The consumer must re-bootstrap from a
// snapshot (DeltaSince or SnapshotWithSeq, or ncserve's
// /snapshot?since=) instead of resuming.
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

// ChangeStreamStats is an operational snapshot of a registry's change
// stream: the feed's own counters.
type ChangeStreamStats = changefeed.Stats

// ChangeSeq returns the sequence number of the most recent mutation
// (0 if nothing has mutated). A client that reads state and then
// subscribes with since=ChangeSeq observes every later mutation with no
// gap — the race-free read-then-follow handshake. On a replica it is
// the position in the leader's sequence space: hand it to an upstream's
// /changes to continue exactly there.
func (r *Registry) ChangeSeq() uint64 { return r.feed.Seq() }

// ChangeEpoch returns the stream's current fencing epoch: bumped on
// every promotion, persisted, and carried by every event, so consumers
// can refuse a deposed leader's stale stream (0 before any promotion).
func (r *Registry) ChangeEpoch() uint64 { return r.feed.Epoch() }

// ChangeStreamStats snapshots the change stream's counters.
func (r *Registry) ChangeStreamStats() ChangeStreamStats { return r.feed.Stats() }

// ChangesSince returns up to max events with sequence > since, oldest
// first (max <= 0 means no limit), from the in-memory ring. History is
// the ring, for every registry flavour: below it — a resume point the
// ring has overwritten, or one from before a persistent registry's
// restart — it returns ErrChangeHistoryTruncated and the consumer
// re-bootstraps, with DeltaSince when it holds state or SnapshotWithSeq
// when it does not.
func (r *Registry) ChangesSince(since uint64, max int) ([]ChangeEvent, error) {
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

// DeltaSince assembles the delta-snapshot triple in one hold of the
// read lock, so it is as exact as SnapshotWithSeq: seq, the removals in
// (since, seq] and the live entries changed in (since, seq], with no
// mutation — and no re-bootstrap rewrite — between the three reads.
// The entries come from a scan of current state, each carrying the
// sequence that produced it, so they are complete however far back
// since reaches. ok is false when the tombstone ring has forgotten
// removals at or before since: only a full snapshot then guarantees
// deleted entries do not survive on the consumer.
func (r *Registry) DeltaSince(since uint64) (entries []RegistryEntry, removed []string, seq uint64, ok bool) {
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

// ChangeCursor reads the change stream from memory behind a wake-up:
// Wake is signalled after every mutation and every stream restart, and
// Read(since, buf) copies what the ring holds past since. Read fails
// when the ring (ChangeStreamBuffer events) has overwritten events
// after since, or when the stream restarted — a replica
// re-bootstrapped, even at or below its old sequence, or the registry
// closed — since the last Read; either way the owner resyncs from
// current state and continues from ChangeSeq. Close detaches it.
type ChangeCursor = changefeed.Cursor

// FollowChanges attaches a ChangeCursor: every mutation published after
// it returns signals the cursor's Wake. Its sink runs inline on the
// mutation path and only signals, so a cursor costs publishers one
// non-blocking channel send.
func (r *Registry) FollowChanges() *ChangeCursor { return r.feed.Follow() }
