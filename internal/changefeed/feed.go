// Package changefeed is the registry's change-stream core: a totally
// ordered, sequence-numbered log of applied mutations that durability,
// watchers, and read replicas all consume through one seam.
//
// The paper's observation — application-level coordinates change
// rarely — is what makes the stream cheap to consume: it is almost
// always quiet, so a few inline sinks per mutation and consumers that
// re-read history when woken cost almost nothing, while polling
// mostly-unchanged state would cost forever.
//
// A Feed assigns each published event the next sequence number (dense:
// seq n+1 follows n with no holes) and has two kinds of consumer:
//
//   - Sinks are synchronous: invoked inline under the feed lock, in
//     sequence order, with no buffering and no loss. The persistence
//     layer's WAL append is one (Tap — its append only enqueues, so the
//     inline call is cheap); a Cursor's wake-up is another. A sink only
//     enqueues or signals and takes no lock of its own: it runs on
//     every mutation path, under the publishing registry's write lock.
//   - Readers re-read history: Since serves the ring of recent events
//     and reports when it no longer reaches back far enough, so the
//     caller re-bootstraps from a snapshot. A Cursor is a sink
//     that wakes its owner plus a ring-only read, which reports a
//     position the ring has overwritten, or a stream restarted under
//     it, so the owner resyncs from current state.
package changefeed

import (
	"errors"
	"slices"
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

// ErrTruncated is returned by Since when the ring no longer holds the
// requested resume point; the ring is the only history, so the caller
// must re-bootstrap from a snapshot.
var ErrTruncated = errors.New("changefeed: history truncated (resume point older than the ring)")

// ErrReset is returned by Cursor.Read when the stream was restarted
// (ResetTo, AdvanceTo) or the feed closed since the cursor's last read:
// the owner's position no longer connects to the feed's state, whether
// or not the sequence moved past it.
var ErrReset = errors.New("changefeed: stream restarted under the cursor")

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
	// Subscribers counts the attached sinks other than taps.
	Subscribers int `json:"subscribers"`
	// Overflows counts events a sink refused (SubscribeFunc's sink
	// returned false).
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
// safe for concurrent use.
type Feed struct {
	mu     sync.Mutex
	seq    uint64    // last assigned, guarded by mu; mirrored in seqAtomic
	slab   wire.Slab // the frame bytes publish encodes; guarded by mu
	ring   []Event
	next   int             // ring slot the next event lands in
	len    int             // live events in the ring
	sinks  []*Subscription // called in attach order for every event; guarded by mu
	taps   int             // how many of sinks are taps
	closed bool

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
		tombs:     make([]tombstone, tombCap),
		tombFloor: startSeq,
	}
	f.seqAtomic.Store(startSeq)
	return f
}

// Tap attaches fn as a durable sink: invoked inline, under the feed
// lock, for every subsequent event in sequence order, never detached —
// not even by Close — and not counted among Stats.Subscribers. fn must
// only enqueue: it runs on every mutation path, under the publishing
// registry's write lock.
func (f *Feed) Tap(fn func(Event)) {
	f.attach(&Subscription{f: f, sink: func(ev *Event) bool { fn(*ev); return true }, tap: true})
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
	f.appendLocked(ev)
	f.mu.Unlock()
	f.published.Add(1)
	return nil
}

// ResetTo restarts the stream at seq on a state rewritten from a FULL
// snapshot — recovery, or a relay's bootstrap: the retained events no
// longer connect to it and are discarded, and the removal knowledge
// becomes the snapshot's, its floor and its tombstones (oldest first),
// recorded with the normal ring accounting, so more than the ring holds
// raise the floor as they would live. A relay that keeps its upstream's
// removal knowledge keeps serving delta snapshots to the tiers below it.
// Every sink but the taps gets its reset callback and stays attached: a
// Cursor's owner resynchronizes from current state, exactly as it would
// after falling off the ring.
func (f *Feed) ResetTo(seq, floor uint64, tombs []Tombstone) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tombNext, f.tombLen = 0, 0
	f.tombFloor = floor
	f.restartLocked(seq, tombs)
}

// AdvanceTo is ResetTo for a relay that repaired itself with a DELTA
// snapshot: the event ring still cannot represent the hole (resumers
// below seq get truncation → their own delta bootstrap), but the
// delta's tombstones are exactly the removal knowledge for the jumped
// range, each at its own sequence, so they join the tombstone ring and
// the floor is PRESERVED. Without this, every delta repair at one tier
// would force full-snapshot transfers on every tier below it, in
// exactly the truncation-under-churn scenario delta snapshots exist
// for.
func (f *Feed) AdvanceTo(seq uint64, tombs []Tombstone) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.restartLocked(seq, tombs)
}

// restartLocked empties the event ring, records tombs, restarts the
// sequence space at seq and runs every non-tap sink's reset callback;
// the caller holds f.mu and has settled the tombstone ring's floor.
//
//nc:locked(mu)
func (f *Feed) restartLocked(seq uint64, tombs []Tombstone) {
	f.next, f.len = 0, 0
	for _, t := range tombs {
		f.recordTombLocked(t.Seq, t.ID)
	}
	f.seq = seq
	f.seqAtomic.Store(seq)
	for _, sub := range f.sinks {
		if !sub.tap {
			sub.onReset()
		}
	}
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

// Tombstones exports the removal knowledge past since: the floor — the
// sequence at or below which removals are unknown — and every
// remembered removal above both since and the floor, oldest first.
// since 0 exports the whole ring, for a full snapshot; a since at or
// above the floor, the complete list of removals after it, for a delta.
func (f *Feed) Tombstones(since uint64) (floor uint64, tombs []Tombstone) {
	f.mu.Lock()
	defer f.mu.Unlock()
	since = max(since, f.tombFloor)
	start := (f.tombNext - f.tombLen + len(f.tombs)) % len(f.tombs)
	for i := 0; i < f.tombLen; i++ {
		if t := f.tombs[(start+i)%len(f.tombs)]; t.seq > since {
			tombs = append(tombs, Tombstone{Seq: t.seq, ID: t.id})
		}
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

// appendLocked retains a sequenced event in the ring, records its
// removals, and hands its ring slot to every sink in attach order; a
// sink refusing it counts one overflow. The caller holds f.mu.
//
//nc:locked(mu)
func (f *Feed) appendLocked(ev Event) {
	slot := &f.ring[f.next]
	*slot = ev
	f.next = (f.next + 1) % len(f.ring)
	if f.len < len(f.ring) {
		f.len++
	}
	f.recordTombsLocked(ev)
	for _, sub := range f.sinks {
		if !sub.sink(slot) {
			f.overflows.Add(1)
		}
	}
}

// publish assigns the next sequence, encodes the event's frame when a
// sink is attached, and appends the event. This is the stream's
// origin, so the propagation stamp is taken and the frame encoded here
// — once per event, before any relay tier sees it.
func (f *Feed) publish(ev Event) uint64 {
	ev.PubNs = time.Now().UnixNano()
	ev.Epoch = f.epoch.Load()
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	if ev.Op == OpUpsert {
		ev.Entry.Seq = ev.Seq
	}
	if len(f.sinks) > 0 {
		// The one encode of this mutation, before the ring copy so every
		// copy of the event — ring slot, tap, reader, relay tiers
		// downstream — shares the bytes. With nobody listening there is
		// nobody to share them with: the event goes without (a later
		// history read encodes what it serves), which keeps a registry
		// that merely retains a ring at its bare mutation cost. An event
		// the frame cannot carry (an id or dimension past the wire's
		// bounds, which registry owners reject up front) goes without too.
		_ = f.slab.Encode(&ev)
	}
	f.seqAtomic.Store(f.seq)
	f.appendLocked(ev)
	f.mu.Unlock()
	f.published.Add(1)
	return ev.Seq
}

// Since returns up to max events with sequence > since, oldest first,
// served from the in-memory ring. It returns ErrTruncated when the
// ring no longer reaches back to since+1 — the caller must then
// re-bootstrap from a snapshot instead. A since at or beyond the
// current sequence returns an empty slice. max <= 0 means no limit.
func (f *Feed) Since(since uint64, max int) ([]Event, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readLocked(since, max, nil)
}

// readLocked appends to dst (allocated to fit when nil) up to max
// events with sequence > since from the ring, oldest first; max <= 0
// means no limit. The caller holds f.mu.
//
//nc:locked(mu)
func (f *Feed) readLocked(since uint64, max int, dst []Event) ([]Event, error) {
	if since >= f.seq {
		return dst, nil
	}
	oldest := f.seq - uint64(f.len) + 1 // oldest seq in the ring
	if f.len == 0 || since+1 < oldest {
		return dst, ErrTruncated
	}
	n := int(f.seq - since)
	if max > 0 && n > max {
		n = max
	}
	if dst == nil {
		dst = make([]Event, 0, n)
	}
	// The ring is chronological starting at slot next-len.
	start := (f.next - f.len + len(f.ring)) % len(f.ring)
	skip := int(since + 1 - oldest)
	for i := skip; i < skip+n; i++ {
		dst = append(dst, f.ring[(start+i)%len(f.ring)])
	}
	return dst, nil
}

// OldestBuffered reports the oldest sequence the ring can serve: the
// oldest event in it, or the next to be published when it is empty (a
// feed repositioned by recovery or a bootstrap holds no history yet).
func (f *Feed) OldestBuffered() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq - uint64(f.len) + 1
}

// Stats snapshots operational counters.
func (f *Feed) Stats() Stats {
	f.mu.Lock()
	subs := len(f.sinks) - f.taps
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

// Close detaches every sink but the taps, running each one's reset
// callback, and refuses later SubscribeFunc attachments the same way.
// Publishing remains legal after Close (the owning registry stays
// mutable after its background work stops): events still reach the
// taps and the ring.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	kept := f.sinks[:0]
	for _, sub := range f.sinks {
		if sub.tap {
			kept = append(kept, sub)
		} else {
			sub.onReset()
		}
	}
	clear(f.sinks[len(kept):])
	f.sinks = kept
}

// Subscription is one synchronous sink; Close detaches it.
type Subscription struct {
	f       *Feed
	sink    func(*Event) bool
	onReset func()
	tap     bool
}

// SubscribeFunc attaches sink, invoked inline under the feed lock for
// every event published after it returns, in sequence order. The event
// pointer aims at the event's ring slot: valid only for the call and
// not to be modified (a sink that retains the event copies it). sink
// must not block and takes no lock — the lock order is the registry's
// lock, then the feed's — and reports whether it accepted the event;
// false counts as an overflow (Stats.Overflows). onReset runs under the
// same lock when the stream restarts under the subscription (ResetTo,
// AdvanceTo: it stays attached) and when Close detaches it — at once,
// on a closed feed.
func (f *Feed) SubscribeFunc(sink func(*Event) bool, onReset func()) *Subscription {
	sub := &Subscription{f: f, sink: sink, onReset: onReset}
	f.attach(sub)
	return sub
}

// attach adds sub to the sink list. A closed feed takes only taps;
// anything else gets its reset callback instead.
func (f *Feed) attach(sub *Subscription) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case sub.tap:
		f.taps++
	case f.closed:
		sub.onReset()
		return
	}
	f.sinks = append(f.sinks, sub)
}

// Close detaches the subscription: once it returns, neither callback is
// in flight or runs again. Safe to call more than once and concurrently
// with publishing, but not from inside a callback, which already holds
// the lock Close takes.
func (s *Subscription) Close() {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	s.f.sinks = slices.DeleteFunc(s.f.sinks, func(sub *Subscription) bool { return sub == s })
}

// Cursor is a ring reader behind a wake-up: its sink signals Wake,
// coalescing and never blocking, after every event and every stream
// restart, and its owner — which keeps its own position — Reads what
// the ring holds past that position. The ring's size bounds how far the
// owner may lag before Read reports ErrTruncated.
type Cursor struct {
	sub   *Subscription
	wake  chan struct{}
	reset bool // a restart since the last Read; guarded by the feed's mu
}

// Follow attaches a Cursor: every event published after it returns
// signals Wake.
func (f *Feed) Follow() *Cursor {
	c := &Cursor{wake: make(chan struct{}, 1)}
	c.sub = f.SubscribeFunc(c.accept, c.restart)
	return c
}

// accept is the cursor's sink: the event is in the ring, so the owner
// only needs waking.
func (c *Cursor) accept(*Event) bool {
	c.signal()
	return true
}

// restart is the cursor's reset callback, run under the feed's mu.
func (c *Cursor) restart() {
	c.reset = true
	c.signal()
}

func (c *Cursor) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Wake is signalled after every event and every restart; signals
// coalesce, so one wake may stand for many events.
func (c *Cursor) Wake() <-chan struct{} { return c.wake }

// Read copies into buf up to len(buf) events with sequence > since
// (every one the ring holds when buf is empty), oldest first, holding
// the feed lock for that copy only; it never
// reads deeper history than the ring. ErrTruncated means the ring has
// overwritten events after since, ErrReset that the stream restarted or
// the feed closed since the last Read: either way the owner resyncs
// from current state and continues from the feed's sequence.
func (c *Cursor) Read(since uint64, buf []Event) ([]Event, error) {
	f := c.sub.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.reset {
		c.reset = false
		return nil, ErrReset
	}
	return f.readLocked(since, len(buf), buf[:0])
}

// Close detaches the cursor.
func (c *Cursor) Close() { c.sub.Close() }
