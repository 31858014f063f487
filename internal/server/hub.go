package server

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"netcoord"
	"netcoord/internal/changefeed"
	"netcoord/internal/telemetry"
)

// hubReadBatch bounds one read of the ring: the hub holds the feed's
// lock for copying at most this many events.
const hubReadBatch = 256

// maxGridLevel bounds the damage map's cell hierarchy; a watch radius
// past 2^maxGridLevel ms falls back to the any-upsert set.
const maxGridLevel = 40

// WatchHub is a server's one reader of the change stream: every /watch
// and every waiting /changes request hangs off ONE cursor on the registry's
// ring. A synchronous sink wakes one goroutine, which reads what the
// ring holds past its position and routes each event through a spatial
// damage map to just the watchers it could affect, so the per-mutation
// cost is one non-blocking wake plus O(damaged), not a relevance check
// per watcher.
//
// The damage map has three indexes, consulted by event shape:
//
//   - byID: watchers whose current top-k contains the id, or who watch
//     it as their origin. Removes and evictions damage only through
//     here — deleting a node that is in nobody's top-k changes nobody's
//     top-k. Upserts of a known id are filtered further: an unchanged
//     coordinate (the TTL heartbeat, the overwhelmingly common event)
//     moves no distances and damages nothing.
//   - the cell grid: a hierarchy of power-of-two grids over the first
//     three coordinate axes. A watcher with a full top-k can only be
//     affected by an upsert landing within its k-th distance, so it
//     registers over the (at most 2^3) cells its interest ball overlaps
//     at the level whose cell side first reaches the ball's diameter.
//     An upsert then probes exactly one cell per occupied level and
//     distance-checks the few watchers found there. Grid coordinates
//     use the plain vector axes; the true distance (which adds the
//     non-negative heights) only exceeds it, so the probe over-triggers
//     but never misses.
//   - the any-upsert set: watchers whose top-k is not yet full (any
//     insert enters it) or whose interest is not yet registered; every
//     upsert damages them.
//
// A resync — the hub fell more than the ring (ChangeStreamBuffer
// events) behind and the ring overwrote its position, or the stream
// restarted under it (a follower re-bootstrap, at any sequence, or the
// registry's Close) — conservatively damages every watcher and jumps to
// the stream's sequence: correctness never depends on routing every
// event.
//
// /changes readers need no routing, only a wake: they park on a
// broadcast channel (Changed) that the hub closes and replaces on every
// read that found events and on every resync — whenever the stream
// position may have moved — and re-read the stream themselves. Parking
// and waking is a channel receive; an idle poll attaches nothing to the
// feed.
type WatchHub struct {
	reg      *netcoord.Registry
	shutdown <-chan struct{}

	// processed is the last routed sequence; watchers compare it to
	// decide whether their interest was installed race-free. Written
	// under mu, read anywhere.
	processed atomic.Uint64

	events  atomic.Uint64
	damages atomic.Uint64
	resyncs atomic.Uint64
	dropped atomic.Uint64

	// recomputeLat times each watcher recompute (query + interest
	// install); deliverLag is publish→deliver propagation: for every
	// damaging event carrying an origin publish stamp, the wall-clock
	// nanoseconds until a watcher's recompute reflected it — the full
	// leader→(relays)→watcher path.
	recomputeLat *telemetry.Histogram
	deliverLag   *telemetry.Histogram

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced when the stream may have moved
	parked    bool          // someone holds changed since it was last replaced
	watchers  map[*HubWatcher]struct{}
	byID      map[string]map[*HubWatcher]struct{}
	anyOp     map[*HubWatcher]struct{} // immature: damaged by any event
	anyUpsert map[*HubWatcher]struct{} // mature, top-k not full
	cells     map[cellKey][]*HubWatcher
	levels    map[uint8]int // watcher-cell registrations per level
}

// WatchHubStats is the hub's operational snapshot, served in /stats.
type WatchHubStats struct {
	// Watchers is the live watcher count; Cells the registrations in
	// the spatial damage map across Levels occupied grid levels.
	Watchers int `json:"watchers"`
	Cells    int `json:"cells"`
	Levels   int `json:"levels"`
	// EventsProcessed counts routed stream events; Damages the watcher
	// notifications they caused (the fan-out actually paid, vs
	// EventsProcessed × Watchers under per-watcher subscriptions);
	// Resyncs the conservative damage-everyone rounds after the ring
	// overwrote the hub's position or the stream restarted.
	EventsProcessed uint64 `json:"events_processed"`
	Damages         uint64 `json:"damages"`
	Resyncs         uint64 `json:"resyncs"`
	// SubscriptionDropped counts events the hub never routed because the
	// ring overwrote them before it read them (each such run also shows
	// up as one resync).
	SubscriptionDropped uint64 `json:"subscription_dropped"`
	// ProcessedSeq is the hub's position in the stream.
	ProcessedSeq uint64 `json:"processed_seq"`
	// RecomputeNs summarizes watcher recompute latency (query +
	// interest install); DeliverLagNs summarizes publish→deliver
	// propagation lag for stamped events.
	RecomputeNs  telemetry.Summary `json:"recompute_ns"`
	DeliverLagNs telemetry.Summary `json:"deliver_lag_ns"`
}

// HubWatcher is one /watch registered with the hub. The handler waits
// on C, recomputes its top-k when woken, and reinstalls its interest
// with SetInterest.
type HubWatcher struct {
	notify chan struct{}
	// pendingPubNs is the origin publish stamp of the OLDEST damaging
	// event not yet reflected by a recompute (0 = none pending). Keeping
	// the oldest makes the deliver-lag reading conservative: a coalesced
	// burst reports the wait of the event that waited longest.
	pendingPubNs atomic.Int64

	// The fields below are guarded by the hub's mu.
	watchID  string
	origin   netcoord.Coordinate
	members  map[string]netcoord.Coordinate
	kth      float64
	detached bool
	cells    []cellKey
}

// C signals damage: at least one event since the last SetInterest may
// have changed this watcher's top-k. Signals coalesce (the channel
// holds one), so a burst costs one recompute.
func (w *HubWatcher) C() <-chan struct{} { return w.notify }

// cellKey addresses one cell of the damage map: a grid level (cell
// side 2^level) and the cell's integer coordinates on the first three
// vector axes.
type cellKey struct {
	level   uint8
	x, y, z int32
}

func newWatchHub(reg *netcoord.Registry, shutdown <-chan struct{}) *WatchHub {
	h := &WatchHub{
		reg:       reg,
		shutdown:  shutdown,
		watchers:  make(map[*HubWatcher]struct{}),
		byID:      make(map[string]map[*HubWatcher]struct{}),
		anyOp:     make(map[*HubWatcher]struct{}),
		anyUpsert: make(map[*HubWatcher]struct{}),
		cells:     make(map[cellKey][]*HubWatcher),
		levels:    make(map[uint8]int),
		changed:   make(chan struct{}),

		recomputeLat: telemetry.NewHistogram(),
		deliverLag:   telemetry.NewHistogram(),
	}
	// Follow synchronously: the first watcher joins at the stream
	// position the reads start from.
	c := reg.FollowChanges()
	h.processed.Store(reg.ChangeSeq())
	go h.run(c)
	return h
}

// run reads the stream for the server's lifetime: woken by its
// cursor's sink, it routes everything the ring holds past processed.
func (h *WatchHub) run(c *netcoord.ChangeCursor) {
	defer c.Close()
	buf := make([]netcoord.ChangeEvent, hubReadBatch)
	for {
		select {
		case <-h.shutdown:
			return
		case <-c.Wake():
		}
		for h.drain(c, buf) {
		}
	}
}

// drain routes one read of the ring and reports whether the ring may
// hold more: a read that filled buf. Anything published after the wake
// that led here signals the next one.
func (h *WatchHub) drain(c *netcoord.ChangeCursor, buf []netcoord.ChangeEvent) bool {
	evs, err := c.Read(h.processed.Load(), buf)
	if err == nil && len(evs) == 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.wakePollersLocked()
	if err != nil {
		// The position no longer connects to the ring: everyone
		// recomputes from live state, and the hub continues from the
		// stream's sequence, read under mu so a resync covers every
		// event a Read that waited on mu meanwhile could have missed.
		seq, last := h.reg.ChangeSeq(), h.processed.Load()
		if errors.Is(err, changefeed.ErrTruncated) && seq > last {
			h.dropped.Add(seq - last)
		}
		h.processed.Store(seq)
		h.resyncs.Add(1)
		for w := range h.watchers {
			h.damageLocked(w, 0)
		}
		return false
	}
	for i := range evs {
		h.routeLocked(&evs[i])
	}
	h.processed.Store(evs[len(evs)-1].Seq)
	h.events.Add(uint64(len(evs)))
	full := len(evs) == len(buf)
	clear(evs) // the ring owns the events; keep none of them alive here
	return full
}

// routeLocked damages the watchers one event could affect.
//
//nc:locked(mu)
func (h *WatchHub) routeLocked(ev *netcoord.ChangeEvent) {
	for w := range h.anyOp {
		h.damageLocked(w, ev.PubNs)
	}
	switch ev.Op {
	case netcoord.ChangeUpsert:
		h.damageUpsertLocked(ev.Entry.ID, ev.Entry.Coord, ev.PubNs)
	case netcoord.ChangeRemove:
		for w := range h.byID[ev.ID] {
			h.damageLocked(w, ev.PubNs)
		}
	case netcoord.ChangeEvict:
		for _, id := range ev.IDs {
			for w := range h.byID[id] {
				h.damageLocked(w, ev.PubNs)
			}
		}
	default:
		// Unknown op: be conservative.
		for w := range h.watchers {
			h.damageLocked(w, ev.PubNs)
		}
	}
}

// damageUpsertLocked damages the watchers an upsert at coordinate c
// could affect: known-id watchers (unless the coordinate is unchanged —
// a heartbeat moves nothing), not-yet-full watchers, and grid watchers
// whose interest ball contains c.
//
//nc:locked(mu)
func (h *WatchHub) damageUpsertLocked(id string, c netcoord.Coordinate, pubNs int64) {
	for w := range h.byID[id] {
		if id == w.watchID {
			if c.Equal(w.origin) {
				continue // heartbeat refresh of the watched origin
			}
		} else if mc, ok := w.members[id]; ok && c.Equal(mc) {
			continue // heartbeat refresh of a current member
		}
		h.damageLocked(w, pubNs)
	}
	for w := range h.anyUpsert {
		h.damageLocked(w, pubNs)
	}
	for level := range h.levels {
		for _, w := range h.cells[cellAt(c, level)] {
			if w.watchID == id {
				continue // byID owns the origin's own events
			}
			if _, isMember := w.members[id]; isMember {
				continue // byID owns member events
			}
			if d, err := w.origin.DistanceTo(c); err == nil && d <= w.kth {
				h.damageLocked(w, pubNs)
			}
		}
	}
}

// Changed returns the channel the next broadcast will close. A poller
// grabs it *before* checking ChangeSeq: an event landing between the
// check and the park then still wakes it.
func (h *WatchHub) Changed() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.parked = true
	return h.changed
}

// wakePollersLocked closes the broadcast channel and installs a fresh
// one — when anyone took the current one; a stream nobody waits on
// pays nothing per event.
//
//nc:locked(mu)
func (h *WatchHub) wakePollersLocked() {
	if h.parked {
		close(h.changed)
		h.changed = make(chan struct{})
		h.parked = false
	}
}

// damage wakes one watcher from outside the read loop — the handler
// uses it to carry racing damage across a capped sync loop.
func (h *WatchHub) damage(w *HubWatcher) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.damageLocked(w, 0)
}

// damageLocked wakes the watcher. pubNs, when nonzero, is the damaging
// event's origin publish stamp; the oldest pending stamp is kept so
// deliver-lag measures the longest wait in a coalesced burst.
//
//nc:locked(mu)
func (h *WatchHub) damageLocked(w *HubWatcher, pubNs int64) {
	if pubNs > 0 {
		w.pendingPubNs.CompareAndSwap(0, pubNs)
	}
	h.damages.Add(1)
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// observeRecompute records one watcher recompute's latency.
func (h *WatchHub) observeRecompute(d time.Duration) {
	h.recomputeLat.Observe(d.Nanoseconds())
}

// Processed is the hub's stream position. A handler that reads it
// before a recompute and finds SetInterest returning the same value
// knows no event was filtered against its stale interest in between.
func (h *WatchHub) Processed() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.processed.Load()
}

// Watch registers a watcher. Until its first SetInterest it is
// "immature": damaged by every event, because nothing is known about
// what could affect it — which is exactly what closes the gap between
// registration and the handler's initial query.
func (h *WatchHub) Watch(watchID string) *HubWatcher {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := &HubWatcher{
		notify:  make(chan struct{}, 1),
		watchID: watchID,
		kth:     math.Inf(1),
	}
	h.watchers[w] = struct{}{}
	h.anyOp[w] = struct{}{}
	if watchID != "" {
		h.addByIDLocked(watchID, w)
	}
	return w
}

// SetInterest installs what the watcher now cares about — the origin
// it measures from, its current top-k membership (with coordinates, so
// member heartbeats filter), and the implied k-th distance ball — and
// returns the hub's stream position at install time. The caller
// compares it against Processed() read before its query: a difference
// means events were routed against the previous interest while the
// query ran, and the only safe response is to recompute again.
func (h *WatchHub) SetInterest(w *HubWatcher, origin netcoord.Coordinate, results []netcoord.Ranked, k int) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if w.detached {
		return h.processed.Load()
	}
	h.clearInterestLocked(w)
	w.origin = origin
	w.members = make(map[string]netcoord.Coordinate, len(results))
	for _, r := range results {
		w.members[r.ID] = r.Coord
		h.addByIDLocked(r.ID, w)
	}
	if w.watchID != "" {
		h.addByIDLocked(w.watchID, w)
	}
	full := k > 0 && len(results) == k
	if full {
		w.kth = results[len(results)-1].EstimatedRTT
	} else {
		w.kth = math.Inf(1)
	}
	if level, ok := levelFor(w.kth); full && ok {
		w.cells = coverCells(origin, w.kth, level, w.cells[:0])
		for _, key := range w.cells {
			h.cells[key] = append(h.cells[key], w)
		}
		h.levels[level] += len(w.cells)
	} else {
		// Radius unbounded (or absurd): any upsert may matter.
		h.anyUpsert[w] = struct{}{}
	}
	return h.processed.Load()
}

// Detach unregisters the watcher; its channel stops receiving.
func (h *WatchHub) Detach(w *HubWatcher) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if w.detached {
		return
	}
	h.clearInterestLocked(w)
	if w.watchID != "" {
		h.dropByIDLocked(w.watchID, w)
	}
	delete(h.watchers, w)
	delete(h.anyOp, w)
	w.detached = true
}

// clearInterestLocked removes the watcher's member, grid, and
// any-upsert registrations (the permanent watchID registration stays
// until Detach; SetInterest re-adds it idempotently).
//
//nc:locked(mu)
func (h *WatchHub) clearInterestLocked(w *HubWatcher) {
	for id := range w.members {
		h.dropByIDLocked(id, w)
	}
	for _, key := range w.cells {
		bucket := h.cells[key]
		for i, cand := range bucket {
			if cand == w {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(h.cells, key)
		} else {
			h.cells[key] = bucket
		}
		if h.levels[key.level]--; h.levels[key.level] == 0 {
			delete(h.levels, key.level)
		}
	}
	w.cells = w.cells[:0]
	delete(h.anyUpsert, w)
	delete(h.anyOp, w)
}

// addByIDLocked registers w under id; the caller holds h.mu.
//
//nc:locked(mu)
func (h *WatchHub) addByIDLocked(id string, w *HubWatcher) {
	set := h.byID[id]
	if set == nil {
		set = make(map[*HubWatcher]struct{})
		h.byID[id] = set
	}
	set[w] = struct{}{}
}

// dropByIDLocked unregisters w from id; the caller holds h.mu.
//
//nc:locked(mu)
func (h *WatchHub) dropByIDLocked(id string, w *HubWatcher) {
	if set, ok := h.byID[id]; ok {
		delete(set, w)
		if len(set) == 0 {
			delete(h.byID, id)
		}
	}
}

// Stats snapshots the hub's counters.
func (h *WatchHub) Stats() WatchHubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	cells := 0
	for _, n := range h.levels {
		cells += n
	}
	return WatchHubStats{
		Watchers:            len(h.watchers),
		Cells:               cells,
		Levels:              len(h.levels),
		EventsProcessed:     h.events.Load(),
		Damages:             h.damages.Load(),
		Resyncs:             h.resyncs.Load(),
		SubscriptionDropped: h.dropped.Load(),
		ProcessedSeq:        h.processed.Load(),
		RecomputeNs:         h.recomputeLat.Summary(),
		DeliverLagNs:        h.deliverLag.Summary(),
	}
}

// levelFor picks the grid level whose cell side (2^level) first
// reaches the interest ball's diameter, so the ball overlaps at most
// two cells per axis.
func levelFor(r float64) (uint8, bool) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 1) {
		return 0, false
	}
	level := uint8(0)
	for float64(uint64(1)<<level) < 2*r {
		if level++; level > maxGridLevel {
			return 0, false
		}
	}
	return level, true
}

// cellAt addresses the cell containing c at a level. Only the first
// three vector axes key the grid; missing axes read as zero.
func cellAt(c netcoord.Coordinate, level uint8) cellKey {
	cs := float64(uint64(1) << level)
	key := cellKey{level: level}
	key.x = cellIdx(axis(c, 0) / cs)
	key.y = cellIdx(axis(c, 1) / cs)
	key.z = cellIdx(axis(c, 2) / cs)
	return key
}

// coverCells appends the cells a ball (origin, r) overlaps at a level —
// at most 2 per axis, 8 total, by levelFor's choice of cell side.
func coverCells(origin netcoord.Coordinate, r float64, level uint8, buf []cellKey) []cellKey {
	cs := float64(uint64(1) << level)
	var lo, hi [3]int32
	for i := 0; i < 3; i++ {
		v := axis(origin, i)
		lo[i] = cellIdx((v - r) / cs)
		hi[i] = cellIdx((v + r) / cs)
	}
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				buf = append(buf, cellKey{level: level, x: x, y: y, z: z})
			}
		}
	}
	return buf
}

func axis(c netcoord.Coordinate, i int) float64 {
	if i < len(c.Vec) {
		return c.Vec[i]
	}
	return 0
}

// cellIdx floors to the grid, saturating at the int32 rim (coordinates
// that far out all share the rim cell rather than wrapping).
func cellIdx(v float64) int32 {
	f := math.Floor(v)
	switch {
	case f <= math.MinInt32:
		return math.MinInt32
	case f >= math.MaxInt32:
		return math.MaxInt32
	default:
		return int32(f)
	}
}
