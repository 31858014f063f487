// Package changefeed is the registry's change-stream core: a totally
// ordered, sequence-numbered log of applied mutations that durability,
// live subscribers, and read replicas all consume through one seam.
//
// The paper's observation — application-level coordinates change
// rarely — is what makes a push stream the right distribution
// primitive: the stream is almost always quiet, so fanning every
// mutation out to persistence, watchers, and followers costs almost
// nothing, while pull-based consumers would poll mostly-unchanged
// state forever.
//
// A Feed assigns each published event the next sequence number (dense:
// seq n+1 follows n with no holes) and delivers it to two kinds of
// consumer:
//
//   - Taps are synchronous: invoked inline under the feed lock, in
//     sequence order, with no buffering and no loss. The persistence
//     layer is a tap — its WAL append only enqueues, so the inline
//     call is cheap, and a tap can never miss an event the way a
//     bounded subscriber can. Taps are registered before the feed is
//     shared and never removed.
//   - Subscriptions are asynchronous: each holds a bounded buffer that
//     is written without ever blocking, and receives every event in
//     sequence order (see deliver.go). A subscriber that falls behind
//     loses events (counted in Dropped; a sequence gap is always loss)
//     and is expected to resume from history — the ring via Since, or
//     the WAL beneath it — rather than slow the mutation path down.
//
// The feed also retains the most recent events in a ring so that
// late-joining or lagging subscribers can catch up without touching
// disk; Since reports when the ring no longer reaches back far enough
// and the caller must fall back to WAL replay.
package changefeed

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"netcoord/internal/wire"
)

// The feed publishes wire's record types as they are: an Event carries
// the frame encoded for it at publish (or received with it by a relay),
// and that is what taps log and what history reads serve.
type (
	Event     = wire.Event
	Entry     = wire.Entry
	Tombstone = wire.Tombstone
)

// The mutation kinds a registry publishes.
const (
	OpUpsert = wire.OpUpsert
	OpRemove = wire.OpRemove
	OpEvict  = wire.OpEvict
)

// Evict batch bounds: one eviction sweep is split into multiple events,
// each with its own sequence, so no single event — hence no single
// frame, WAL record or relay batch entry — grows unbounded. The byte
// bound keeps a sweep of maximum-length ids far under the persistence
// layer's record limit.
const (
	evictChunk      = 512
	evictChunkBytes = 256 << 10
)

// frameChunk sizes the slabs publish carves frame bytes from: the ring
// has to keep every event's frame, and one allocation per slab (some
// 700 heartbeat frames) instead of one per event keeps the mutation
// path allocation-free. frameRoom is the free space below which a new
// slab is started; a frame larger than what is left (an eviction chunk)
// grows the slab the way append does.
const (
	frameChunk = 64 << 10
	frameRoom  = 256
)

// ErrTruncated is returned by Since when the ring no longer holds the
// requested resume point; the caller must replay deeper history (the
// WAL) or re-bootstrap from a snapshot.
var ErrTruncated = errors.New("changefeed: history truncated (resume point older than the ring)")

// PublishAt's refusals: what a relayed event can be instead of the next
// one in the stream. None of them changes the feed.
var (
	ErrStaleEpoch = errors.New("changefeed: event carries a fencing epoch below the stream's")
	ErrDuplicate  = errors.New("changefeed: event at or below the stream's sequence")
	ErrGap        = errors.New("changefeed: event skips past the stream's next sequence")
)

// Stats is an operational snapshot of a Feed.
type Stats struct {
	// Seq is the last assigned sequence number (0 = nothing published).
	Seq uint64 `json:"seq"`
	// Published counts events published since construction (events
	// published by this process; excludes the StartSeq offset).
	Published uint64 `json:"published"`
	// Subscribers is the current subscription count.
	Subscribers int `json:"subscribers"`
	// Overflows counts events dropped across all subscribers because
	// their buffers were full — each one a gap some subscriber must
	// repair by resuming from history.
	Overflows uint64 `json:"overflows"`
	// OldestSeq is the oldest event still in the ring (0 = ring empty);
	// Since can serve any resume point >= OldestSeq-1.
	OldestSeq uint64 `json:"oldest_seq"`
	// RingLen and RingCap describe the catch-up ring's fill.
	RingLen int `json:"ring_len"`
	RingCap int `json:"ring_cap"`
	// TombLen and TombCap describe the tombstone ring's fill, and
	// TombFloor is the sequence below which removal knowledge is
	// incomplete — delta snapshots from at or below it are impossible.
	TombLen   int    `json:"tomb_len"`
	TombCap   int    `json:"tomb_cap"`
	TombFloor uint64 `json:"tomb_floor"`
	// Epoch is the stream's current fencing epoch.
	Epoch uint64 `json:"epoch"`
	// RejectedStaleEpoch counts relayed events refused because they
	// carried an epoch below the stream's — a deposed leader still
	// publishing after a promotion.
	RejectedStaleEpoch uint64 `json:"rejected_stale_epoch"`
}

// Feed is the sequenced change stream. Create with New; methods are
// safe for concurrent use except Tap, which must be called before the
// feed is shared.
type Feed struct {
	mu     sync.Mutex
	seq    uint64 // last assigned, guarded by mu; mirrored in seqAtomic
	chunk  []byte // frame slab publish is appending to; guarded by mu
	ring   []Event
	next   int // ring slot the next event lands in
	len    int // live events in the ring
	taps   []func(Event)
	subs   map[*Subscription]struct{}
	closed bool

	// Subscriber delivery is an asynchronous hand-off; see deliver.go.
	// deliverMu serializes delivery (flusher batches and the inline
	// drains in Subscribe/Close) and orders strictly before mu — every
	// path that takes both takes deliverMu first, which is what lets the
	// flusher send to subscriber channels without holding mu while
	// Close/ResetTo can still safely close those channels.
	deliverMu sync.Mutex
	pend      []Event         // pending queue, guarded by mu
	pendSpare []Event         // previous batch's backing, reused on swap
	subsList  []*Subscription // copy-on-write snapshot of subs for lock-free fan-out
	wake      chan struct{}   // cap 1: nudges the flusher
	quit      chan struct{}   // closed to stop the flusher
	flusherOn bool            // guarded by mu

	// The tombstone ring remembers (seq, id) for removals only. Because
	// heartbeat upserts dominate real streams, the event ring forgets a
	// sequence range long before the same memory spent on removals
	// does — which is what lets a delta snapshot prove "these are ALL
	// the ids deleted since seq N" far below the event ring's floor.
	tombs     []tombstone
	tombNext  int
	tombLen   int
	tombFloor uint64 // removal knowledge covers (tombFloor, seq]

	seqAtomic atomic.Uint64
	published atomic.Uint64
	overflows atomic.Uint64

	// epoch is the stream's fencing epoch: stamped onto every locally
	// published event, adopted upward from relayed events, and the bar
	// a relayed event must meet — PublishAt refuses events below it
	// (counted in rejectedStale) so a deposed leader's stale stream
	// cannot re-enter a promoted tier.
	epoch         atomic.Uint64
	rejectedStale atomic.Uint64
}

// tombstone records one removed id and the sequence that removed it.
type tombstone struct {
	seq uint64
	id  string
}

// New builds a Feed whose ring retains up to ringSize recent events
// (minimum 1) and whose next event will be numbered startSeq+1 —
// recovery passes the last persisted sequence so the stream continues
// where the previous process stopped instead of reusing numbers.
func New(ringSize int, startSeq uint64) *Feed {
	if ringSize < 1 {
		ringSize = 1
	}
	tombCap := ringSize * 4
	if tombCap < 1024 {
		tombCap = 1024
	}
	f := &Feed{
		seq:       startSeq,
		ring:      make([]Event, ringSize),
		subs:      make(map[*Subscription]struct{}),
		tombs:     make([]tombstone, tombCap),
		tombFloor: startSeq,
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
	}
	f.seqAtomic.Store(startSeq)
	return f
}

// Tap registers a synchronous consumer invoked inline, under the feed
// lock, for every subsequent event in sequence order. fn must only
// enqueue — it runs on every mutation path, under the publishing
// registry's write lock. Tap is not safe to call concurrently with publishing:
// register taps before the feed is shared.
func (f *Feed) Tap(fn func(Event)) {
	f.taps = append(f.taps, fn)
}

// Seq returns the last assigned sequence number.
func (f *Feed) Seq() uint64 { return f.seqAtomic.Load() }

// Epoch returns the stream's current fencing epoch.
func (f *Feed) Epoch() uint64 { return f.epoch.Load() }

// SetEpoch sets the fencing epoch stamped onto subsequently published
// events. Recovery seeds the persisted epoch here; promotion bumps it.
// Epochs only ever rise — callers pass a value at or above the current
// one (PublishAt adopts higher relayed epochs on its own).
func (f *Feed) SetEpoch(epoch uint64) { f.epoch.Store(epoch) }

// RejectedStaleEpoch counts relayed events refused for carrying an
// epoch below the stream's.
func (f *Feed) RejectedStaleEpoch() uint64 { return f.rejectedStale.Load() }

// PublishUpsert publishes an upsert event and returns its sequence.
func (f *Feed) PublishUpsert(e Entry) uint64 {
	return f.publish(Event{Op: OpUpsert, Entry: e})
}

// PublishRemove publishes a remove event and returns its sequence.
func (f *Feed) PublishRemove(id string) uint64 {
	return f.publish(Event{Op: OpRemove, ID: id})
}

// PublishEvict publishes eviction events for ids, chunked by count and
// by bytes so no single event (or the WAL record a tap writes for it)
// approaches record limits. Every chunk is an event of its own with its
// own sequence. It returns the last sequence assigned.
func (f *Feed) PublishEvict(ids []string) uint64 {
	var last uint64
	for len(ids) > 0 {
		n, bytes := 0, 0
		for n < len(ids) && n < evictChunk && bytes < evictChunkBytes {
			bytes += len(ids[n]) + 4
			n++
		}
		last = f.publish(Event{Op: OpEvict, IDs: ids[:n:n]})
		ids = ids[n:]
	}
	return last
}

// PublishAt appends an event that already carries a sequence assigned
// upstream — a replica relaying its leader's stream republishes each
// applied event under the leader's own number, so everything downstream
// (chained replicas, watchers) lives in one sequence space. The event
// keeps the frame it arrived with — a relay never encodes.
//
// The feed is the one judge of continuity and fencing, and it judges
// before anything changes, so the caller decides from the answer
// whether to touch its own state at all:
//
//   - ErrStaleEpoch: the event's epoch is below the stream's (counted
//     in RejectedStaleEpoch) — it originates from a deposed leader
//     still publishing after a promotion, and applying it would fork
//     the promoted stream. A higher epoch is adopted: the relay is
//     observing its upstream's promotion.
//   - ErrDuplicate: ev.Seq <= Seq(), a repeated delivery.
//   - ErrGap: ev.Seq > Seq()+1. The ring is dense, so a hole is never
//     appended over; ResetTo and AdvanceTo are the only non-dense moves.
//
//nc:hotpath
func (f *Feed) PublishAt(ev Event) error {
	f.mu.Lock()
	cur := f.epoch.Load()
	switch {
	case ev.Epoch < cur:
		f.mu.Unlock()
		f.rejectedStale.Add(1)
		return ErrStaleEpoch
	case ev.Seq <= f.seq:
		f.mu.Unlock()
		return ErrDuplicate
	case ev.Seq != f.seq+1:
		f.mu.Unlock()
		return ErrGap
	}
	if ev.Epoch > cur {
		f.epoch.Store(ev.Epoch)
	}
	f.seq = ev.Seq
	f.seqAtomic.Store(f.seq)
	f.ring[f.next] = ev
	f.next = (f.next + 1) % len(f.ring)
	if f.len < len(f.ring) {
		f.len++
	}
	f.recordTombsLocked(ev)
	full := f.deliverLocked(ev)
	f.mu.Unlock()
	f.published.Add(1)
	if full {
		f.Flush()
	}
	return nil
}

// ResetTo discards the retained history and restarts the sequence
// space at seq — a relay that re-bootstrapped from a FULL snapshot
// calls this, because its previous ring (and removal knowledge, which
// the full snapshot did not carry forward) no longer connects to its
// rewritten state. Every live subscription is closed: consumers
// holding one re-subscribe and resynchronize from current state,
// exactly as they would after falling off the ring. The feed itself
// stays open for subsequent Subscribe/PublishAt.
func (f *Feed) ResetTo(seq uint64) {
	f.deliverMu.Lock()
	defer f.deliverMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next, f.len = 0, 0
	f.tombNext, f.tombLen = 0, 0
	f.tombFloor = seq
	f.resetLocked(seq)
}

// AdvanceTo is ResetTo for a relay that repaired itself with a DELTA
// snapshot: the event ring still cannot represent the hole (resumers
// below seq get truncation → their own delta bootstrap), but the
// delta's removed list is exactly the removal knowledge for the jumped
// range, so it is folded into the tombstone ring — all recorded at seq,
// an upward over-approximation that RemovedSince may over-send but can
// never miss — and the tombstone floor is PRESERVED. Without this,
// every delta repair at one tier would force full-snapshot transfers
// on every tier below it, in exactly the truncation-under-churn
// scenario delta snapshots exist for.
func (f *Feed) AdvanceTo(seq uint64, removed []string) {
	f.deliverMu.Lock()
	defer f.deliverMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next, f.len = 0, 0
	for _, id := range removed {
		f.recordTombLocked(seq, id)
	}
	f.resetLocked(seq)
}

// resetLocked restarts the sequence space and closes every subscriber;
// the caller holds f.deliverMu (so no flush is mid-delivery on the
// channels being closed) and f.mu, and has already settled ring and
// tombstones. Events still pending against the old sequence space are
// discarded — the subscribers they were destined for are being closed.
//
//nc:locked(mu)
func (f *Feed) resetLocked(seq uint64) {
	f.seq = seq
	f.seqAtomic.Store(seq)
	clear(f.pend)
	f.pend = f.pend[:0]
	for sub := range f.subs {
		sub.finish()
	}
	f.subs = make(map[*Subscription]struct{})
	f.subsList = nil
}

// recordTombLocked remembers one removal in the tombstone ring; the
// caller holds f.mu. Overwriting the oldest slot raises the floor: the
// feed can no longer prove completeness of removals at or before it.
//
//nc:locked(mu)
func (f *Feed) recordTombLocked(seq uint64, id string) {
	if f.tombLen == len(f.tombs) {
		f.tombFloor = f.tombs[f.tombNext].seq
	} else {
		f.tombLen++
	}
	f.tombs[f.tombNext] = tombstone{seq: seq, id: id}
	f.tombNext = (f.tombNext + 1) % len(f.tombs)
}

// SeedTombstones replays persisted removal knowledge into the ring:
// floor is the sequence below which knowledge was already incomplete
// when it was captured, and tombs are the remembered removals, oldest
// first. Call before the feed is shared (recovery), like Tap — the
// normal ring-overwrite accounting applies, so seeding more tombstones
// than the ring holds simply raises the floor as it would live.
func (f *Feed) SeedTombstones(floor uint64, tombs []Tombstone) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tombFloor = floor
	for _, t := range tombs {
		f.recordTombLocked(t.Seq, t.ID)
	}
}

// Tombstones exports the removal knowledge for persistence: the floor
// and every remembered removal, oldest first.
func (f *Feed) Tombstones() (floor uint64, tombs []Tombstone) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tombs = make([]Tombstone, 0, f.tombLen)
	start := (f.tombNext - f.tombLen + len(f.tombs)) % len(f.tombs)
	for i := 0; i < f.tombLen; i++ {
		t := f.tombs[(start+i)%len(f.tombs)]
		tombs = append(tombs, Tombstone{Seq: t.seq, ID: t.id})
	}
	return f.tombFloor, tombs
}

// recordTombsLocked records an event's removals; the caller holds f.mu.
//
//nc:locked(mu)
func (f *Feed) recordTombsLocked(ev Event) {
	switch ev.Op {
	case OpRemove:
		f.recordTombLocked(ev.Seq, ev.ID)
	case OpEvict:
		for _, id := range ev.IDs {
			f.recordTombLocked(ev.Seq, id)
		}
	}
}

// RemovedSince reports every id removed (or evicted) with sequence >
// since, deduplicated, and whether the feed can prove the list is
// complete — false once the tombstone ring has forgotten any removal
// at or before since. An id later re-upserted may still appear; the
// consumer applies removals before upserts, so the newer state wins.
func (f *Feed) RemovedSince(since uint64) ([]string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if since < f.tombFloor {
		return nil, false
	}
	seen := make(map[string]struct{})
	out := []string{}
	start := (f.tombNext - f.tombLen + len(f.tombs)) % len(f.tombs)
	for i := 0; i < f.tombLen; i++ {
		t := f.tombs[(start+i)%len(f.tombs)]
		if t.seq <= since {
			continue
		}
		if _, dup := seen[t.id]; dup {
			continue
		}
		seen[t.id] = struct{}{}
		out = append(out, t.id)
	}
	return out, true
}

// deliverLocked runs the taps inline and queues ev for the flusher to
// fan out to subscribers (see deliver.go). It reports
// whether the pending queue hit capacity — the caller must then drain
// it with Flush after releasing f.mu. The caller holds f.mu.
//
//nc:locked(mu)
func (f *Feed) deliverLocked(ev Event) (full bool) {
	for _, tap := range f.taps {
		tap(ev)
	}
	return f.enqueueLocked(ev)
}

// publish assigns the next sequence, encodes the event's frame when
// anyone is listening, retains the event in the ring, runs the taps,
// and offers the event to every subscriber without blocking. This is
// the stream's origin, so the propagation stamp is taken and the frame
// encoded here — once per event, before any relay tier sees it.
func (f *Feed) publish(ev Event) uint64 {
	ev.PubNs = time.Now().UnixNano()
	ev.Epoch = f.epoch.Load()
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	if ev.Op == OpUpsert {
		ev.Entry.Seq = ev.Seq
	}
	if len(f.taps) > 0 || len(f.subs) > 0 {
		// The one encode of this mutation, before the ring copy so every
		// copy of the event — ring slot, tap, subscriber, relay tiers
		// downstream — shares the bytes. With nobody listening there is
		// nobody to share them with: the event goes without (a later
		// history read encodes what it serves), which keeps a registry
		// that merely retains a ring at its bare mutation cost. An event
		// the frame cannot carry (an id or dimension past the wire's
		// bounds, which registry owners reject up front) goes without too.
		if cap(f.chunk)-len(f.chunk) < frameRoom {
			f.chunk = make([]byte, 0, frameChunk) //nc:allow(hotpath) one slab per ~700 published events; it is what keeps the per-event frame bytes off the allocator
		}
		if chunk, err := ev.Encode(f.chunk); err == nil {
			f.chunk = chunk
		}
	}
	f.seqAtomic.Store(f.seq)
	f.ring[f.next] = ev
	f.next = (f.next + 1) % len(f.ring)
	if f.len < len(f.ring) {
		f.len++
	}
	f.recordTombsLocked(ev)
	// A full subscriber buffer means a slow subscriber; the mutation
	// path must not wait for it. The gap is visible to the subscriber
	// (non-contiguous Seq, Dropped counter) and repairable via Since /
	// WAL replay.
	full := f.deliverLocked(ev)
	f.mu.Unlock()
	f.published.Add(1)
	if full {
		f.Flush()
	}
	return ev.Seq
}

// Since returns up to max events with sequence > since, oldest first,
// served from the in-memory ring. It returns ErrTruncated when the
// ring no longer reaches back to since+1 — the caller must then replay
// the WAL (or re-bootstrap from a snapshot) instead. A since at or
// beyond the current sequence returns an empty slice. max <= 0 means
// no limit.
func (f *Feed) Since(since uint64, max int) ([]Event, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if since >= f.seq {
		return nil, nil
	}
	oldest := f.seq - uint64(f.len) + 1 // oldest seq in the ring
	if f.len == 0 || since+1 < oldest {
		return nil, ErrTruncated
	}
	n := int(f.seq - since)
	if max > 0 && n > max {
		n = max
	}
	out := make([]Event, 0, n)
	// The ring is chronological starting at slot next-len.
	start := (f.next - f.len + len(f.ring)) % len(f.ring)
	skip := int(since + 1 - oldest)
	for i := skip; i < f.len && len(out) < n; i++ {
		out = append(out, f.ring[(start+i)%len(f.ring)])
	}
	return out, nil
}

// OldestBuffered reports the oldest sequence still in the ring
// (0 when the ring is empty).
func (f *Feed) OldestBuffered() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.len == 0 {
		return 0
	}
	return f.seq - uint64(f.len) + 1
}

// Stats snapshots operational counters.
func (f *Feed) Stats() Stats {
	f.mu.Lock()
	subs := len(f.subs)
	ringLen := f.len
	ringCap := len(f.ring)
	tombLen := f.tombLen
	tombCap := len(f.tombs)
	tombFloor := f.tombFloor
	var oldest uint64
	if f.len > 0 {
		oldest = f.seq - uint64(f.len) + 1
	}
	f.mu.Unlock()
	return Stats{
		Seq:                f.Seq(),
		Published:          f.published.Load(),
		Subscribers:        subs,
		Overflows:          f.overflows.Load(),
		OldestSeq:          oldest,
		RingLen:            ringLen,
		RingCap:            ringCap,
		TombLen:            tombLen,
		TombCap:            tombCap,
		TombFloor:          tombFloor,
		Epoch:              f.epoch.Load(),
		RejectedStaleEpoch: f.rejectedStale.Load(),
	}
}

// Close closes every subscription's channel and stops accepting new
// ones. Publishing remains legal after Close (the owning registry
// stays mutable after its background work stops); events still reach
// taps and the ring, but no subscribers. Events already pending are
// flushed into subscriber buffers first, so a consumer that drains its
// channel after close still sees everything published before it.
func (f *Feed) Close() {
	f.deliverMu.Lock()
	defer f.deliverMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.drainPendLocked()
	f.closed = true
	if f.flusherOn {
		close(f.quit)
		f.flusherOn = false
	}
	for sub := range f.subs {
		sub.finish()
	}
	f.subs = make(map[*Subscription]struct{})
	f.subsList = nil
}

// Subscription is one bounded asynchronous consumer. Receive from C;
// detect loss via Dropped (or a gap in Event.Seq) and repair it with
// Since. Close when done — an abandoned subscription otherwise drops
// events forever and pollutes the feed's overflow accounting.
type Subscription struct {
	f       *Feed
	ch      chan Event
	joinSeq uint64
	dropped atomic.Uint64
	closed  atomic.Bool

	// sink/onClose replace ch for callback subscriptions (SubscribeFunc):
	// the flusher hands each event to sink instead of a channel send, and
	// onClose fires exactly where ch would have been closed.
	sink    func(*Event) bool
	onClose func()
}

// finish ends delivery to the subscription: closes the channel for
// channel subscriptions, invokes onClose for callback ones. Called
// exactly once, always under f.deliverMu (so no delivery is mid-flight).
func (s *Subscription) finish() {
	if s.ch != nil {
		close(s.ch)
		return
	}
	s.onClose()
}

// Subscribe attaches a subscriber whose buffer holds up to buffer
// events (minimum 1). The subscription observes every event published
// after the returned JoinSeq; history at or before it is fetched
// separately (Since), which makes the two-step "catch up, then follow"
// pattern race-free. Subscribing to a closed feed returns a
// subscription whose channel is already closed.
func (f *Feed) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{f: f, ch: make(chan Event, buffer)}
	f.attach(sub)
	return sub
}

// SubscribeFunc attaches a callback subscription: the flusher invokes
// sink for every event instead of a channel send, and onClose fires
// exactly where the channel would have closed (feed close, reset, or
// Subscription.Close). sink must not block — it runs on the delivery
// path for every subscriber — and reports whether it accepted the
// event; false counts as an overflow drop exactly like a full channel
// buffer. The event pointer is valid only for the duration of the call (it aims at the
// delivery batch's slot, zeroed once the batch is out); a sink that
// retains the event copies it.
// sink and onClose are serialized with each other: onClose is never
// invoked while a sink call is in flight, and sink is never invoked
// after onClose. Subscribing to a closed feed invokes onClose before
// returning.
func (f *Feed) SubscribeFunc(sink func(*Event) bool, onClose func()) *Subscription {
	sub := &Subscription{f: f, sink: sink, onClose: onClose}
	f.attach(sub)
	return sub
}

// attach wires a new subscription into the feed (or finishes it
// immediately when the feed is closed).
func (f *Feed) attach(sub *Subscription) {
	f.deliverMu.Lock()
	f.mu.Lock()
	// Drain anything still pending before reading joinSeq: a pending
	// event's seq is at or below f.seq, so attaching first would let
	// the flusher deliver events at or below the join point.
	f.drainPendLocked()
	sub.joinSeq = f.seq
	if f.closed {
		sub.finish()
	} else {
		f.subs[sub] = struct{}{}
		f.rebuildSubsLocked()
		if !f.flusherOn {
			f.flusherOn = true
			go f.flushLoop()
		}
	}
	f.mu.Unlock()
	f.deliverMu.Unlock()
}

// C is the event channel. It is closed when the subscription or the
// feed is closed; events already buffered remain readable first.
func (s *Subscription) C() <-chan Event { return s.ch }

// JoinSeq is the feed sequence at attach time: the subscription sees
// every event with Seq > JoinSeq (buffer permitting).
func (s *Subscription) JoinSeq() uint64 { return s.joinSeq }

// Dropped counts events this subscription missed to a full buffer.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Safe to call
// multiple times and concurrently with publishing.
func (s *Subscription) Close() {
	if s.closed.Swap(true) {
		return
	}
	// deliverMu first: the flusher must not be mid-send on this channel
	// when it closes.
	s.f.deliverMu.Lock()
	s.f.mu.Lock()
	if _, ok := s.f.subs[s]; ok {
		delete(s.f.subs, s)
		s.f.rebuildSubsLocked()
		s.finish()
	}
	s.f.mu.Unlock()
	s.f.deliverMu.Unlock()
}
