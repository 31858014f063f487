package netcoord

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netcoord/internal/changefeed"
	"netcoord/internal/index"
	"netcoord/internal/wire"
)

// ErrUnknownID is returned by id-centered registry queries (NearestTo,
// Estimate) for ids not currently registered; match with errors.Is so
// services can map it to a not-found response.
var ErrUnknownID = errors.New("netcoord: registry: unknown id")

// ErrReadOnlyReplica is returned by local mutations (Upsert,
// UpsertBatch; Remove reports false, Feed counts a feed error) on a
// registry that mirrors an upstream's stream — a FollowerRegistry
// before Promote. Its sequence space is the leader's, so a local write
// cannot be numbered without forking it: mutate the leader, or promote
// this replica.
var ErrReadOnlyReplica = errors.New("netcoord: registry: read-only replica")

// RegistryEntry is one node stored in a Registry: its ID, its
// (application-level) Coord, its Vivaldi Error weight, UpdatedAt — the
// TTL eviction clock — and Seq, the change-stream sequence of the
// mutation that produced this state. It is the same entry the change
// stream, the WAL and snapshots carry; replication and recovery
// preserve every field exactly. IDs are 1..4096 bytes.
type RegistryEntry = wire.Entry

// RegistryConfig assembles a Registry.
type RegistryConfig struct {
	// Dimension of the stored coordinates; 0 means DefaultConfig's.
	Dimension int
	// TTL evicts entries not upserted within this duration; 0 disables
	// staleness eviction.
	TTL time.Duration
	// JanitorInterval is how often the background janitor sweeps when TTL
	// is set; 0 means TTL/2.
	JanitorInterval time.Duration
	// ChangeStreamBuffer sizes the change stream's in-memory ring: every
	// registry sequences each applied mutation and retains this many
	// recent events for ChangesSince — the only history it keeps; a
	// consumer behind the ring re-bootstraps. It also bounds how far a
	// ChangeCursor — a server's watch hub — may lag before it must
	// resync from current state. <= 0 means DefaultChangeStreamBuffer.
	ChangeStreamBuffer int
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
}

// RegistryStats is an operational snapshot of a Registry.
type RegistryStats struct {
	// Entries is the number of live entries.
	Entries int `json:"entries"`
	// Upserts, Removes, Queries, and Evictions count operations since
	// construction. Queries counts the queries answered: every valid
	// Query, through whichever entry point, and each of a batch's.
	Upserts   uint64 `json:"upserts"`
	Removes   uint64 `json:"removes"`
	Queries   uint64 `json:"queries"`
	Evictions uint64 `json:"evictions"`
	// FeedErrors counts updates from Feed channels the registry had to
	// reject (e.g. wrong-dimension coordinates).
	FeedErrors uint64 `json:"feed_errors"`
	// IndexTombstones, IndexRebuilds and IndexHeight are the spatial
	// index's internals: removed-but-unreclaimed slots, balanced rebuilds
	// performed (each one holds the write lock for the whole build), and
	// an upper bound on the tree's current height.
	IndexTombstones int    `json:"index_tombstones"`
	IndexRebuilds   uint64 `json:"index_rebuilds"`
	IndexHeight     int    `json:"index_height"`
}

// Registry is a concurrency-safe store of node coordinates that answers
// k-nearest-neighbor and radius queries through a spatial index — the
// consumer layer that turns coordinates into server selection and
// operator placement decisions at scale.
//
// One incremental kd-tree under one RWMutex is the whole store: its
// arena keeps every entry's record beside the point it files, and its
// id map answers point lookups. Application-level coordinates change
// rarely, so the registry is read-dominated: queries from many
// goroutines share the read lock and each is one tree walk; a mutation
// takes the write lock for one id lookup and then either rewrites the
// record in place (a refresh) or, when the coordinate actually moved,
// makes one O(depth) index update.
//
// Every registry has one change stream: each applied mutation is
// sequenced and published in the same hold of the write lock (see
// changes.go), whether the registry stands alone, is persistent or
// mirrors a leader.
//
// Entries carry an update timestamp; configure TTL to have a background
// janitor evict nodes that stopped refreshing — crashed or partitioned
// peers age out instead of attracting traffic forever.
//
// Create with NewRegistry, stop the janitor and any feeds with Close.
type Registry struct {
	dim             int
	ttl             time.Duration
	janitorInterval time.Duration
	clock           func() time.Time

	// mu guards tree, the one store of entries — and orders the stream
	// with it: every mutation changes both in one hold of the write lock
	// (apply), and a state load moves both in one hold (load), so a
	// reader holding the read lock sees entries that are exactly the
	// stream's state at feed.Seq().
	mu   sync.RWMutex
	tree *index.Tree

	// replica is set while this registry mirrors an upstream stream (a
	// FollowerRegistry before promotion): relayed events are its only
	// writers, and local mutations are refused with ErrReadOnlyReplica —
	// they would be numbered into the leader's sequence space.
	replica atomic.Bool

	upserts    atomic.Uint64
	removes    atomic.Uint64
	queries    atomic.Uint64
	evictions  atomic.Uint64
	feedErrors atomic.Uint64

	// scratch pools the per-query heaps (see query.go).
	scratch sync.Pool

	// feed is the change stream every applied mutation is published to;
	// persistence taps it, cursors and replicas consume it. One feed
	// per registry, fixed at construction: recovery, a follower's
	// bootstraps and promotion reposition it (load, promote), they never
	// replace it.
	feed *changefeed.Feed

	// lifeMu orders goroutine starts (janitor, feeds) against Close:
	// wg.Add never races wg.Wait, and no feed can start after Close.
	lifeMu    sync.Mutex
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewRegistry builds a Registry and, when cfg.TTL is set, starts its
// staleness janitor. Call Close when done.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	r, err := newRegistry(cfg)
	if err != nil {
		return nil, err
	}
	r.startJanitor()
	return r, nil
}

// newRegistry builds a Registry without starting its janitor, so the
// persistence layer can finish recovery and position its change feed
// (at the recovered sequence, with its WAL tap) before any background
// goroutine can mutate — an eviction during recovery would otherwise
// be published with a reused sequence, or not at all.
func newRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Dimension == 0 {
		cfg.Dimension = DefaultConfig().Dimension
	}
	if cfg.Dimension < 0 {
		return nil, fmt.Errorf("netcoord: registry dimension %d, want > 0", cfg.Dimension)
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("netcoord: registry TTL %v, want >= 0", cfg.TTL)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	if cfg.ChangeStreamBuffer <= 0 {
		cfg.ChangeStreamBuffer = DefaultChangeStreamBuffer
	}
	tree, err := index.New(cfg.Dimension)
	if err != nil {
		return nil, fmt.Errorf("netcoord: registry: %w", err)
	}
	r := &Registry{
		dim:    cfg.Dimension,
		ttl:    cfg.TTL,
		clock:  clock,
		tree:   tree,
		feed:   changefeed.New(cfg.ChangeStreamBuffer, 0),
		closed: make(chan struct{}),
	}
	r.scratch.New = func() any { return newQueryScratch() }
	if cfg.TTL > 0 {
		interval := cfg.JanitorInterval
		if interval <= 0 {
			interval = cfg.TTL / 2
		}
		if interval <= 0 {
			interval = time.Millisecond
		}
		r.janitorInterval = interval
	}
	return r, nil
}

// startJanitor launches the staleness janitor when a TTL is set. It is
// called exactly once, by the constructor that owns the registry.
func (r *Registry) startJanitor() {
	if r.janitorInterval <= 0 {
		return
	}
	r.wg.Add(1)
	go r.janitor(r.janitorInterval)
}

// Close stops the janitor and detaches every change-stream cursor (its
// next Read reports the restart). The registry remains queryable — and
// mutable, with mutations still sequenced and logged — after Close;
// only background work and cursor wake-ups stop.
func (r *Registry) Close() {
	r.closeOnce.Do(func() {
		r.lifeMu.Lock()
		close(r.closed)
		r.lifeMu.Unlock()
	})
	r.wg.Wait()
	r.feed.Close()
}

// janitor periodically evicts stale entries until Close.
func (r *Registry) janitor(interval time.Duration) {
	defer r.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-ticker.C:
			r.EvictStale()
		}
	}
}

// Upsert inserts or refreshes a node. Error is the node's Vivaldi error
// weight (pass 0 if your protocol does not carry it). The update
// timestamp is taken from the registry clock.
//
//nc:hotpath
func (r *Registry) Upsert(id string, c Coordinate, errWeight float64) error {
	if err := wire.ValidateID(id); err != nil {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("netcoord: registry upsert: %w", err)
	}
	ev := ChangeEvent{Op: ChangeUpsert, Entry: RegistryEntry{ID: id, Coord: c, Error: errWeight, UpdatedAt: r.clock()}}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.applyLocked(&ev)
	return err
}

// validateBatch checks every entry of a batch before any of it is
// applied, so a bad entry cannot leave the batch half-applied.
//
//nc:hotpath
func (r *Registry) validateBatch(entries []RegistryEntry) error {
	for i := range entries {
		e := &entries[i]
		// An id no frame can carry would be applied but never logged or
		// replicated; the wire's id rule is the registry's.
		if err := wire.ValidateID(e.ID); err != nil {
			//nc:allow(hotpath) validation-failure return: cold by definition
			return fmt.Errorf("netcoord: registry upsert: %w", err)
		}
		if err := e.Coord.Validate(r.dim); err != nil {
			//nc:allow(hotpath) validation-failure return: cold by definition
			return fmt.Errorf("netcoord: registry upsert %q: %w", e.ID, err)
		}
	}
	return nil
}

// UpsertBatch applies many upserts under one hold of the write lock.
// Entries with a zero UpdatedAt are stamped with the registry clock. The
// whole batch is validated before anything is applied: on error, the
// registry is unchanged.
//
//nc:hotpath
func (r *Registry) UpsertBatch(entries []RegistryEntry) error {
	now := r.clock()
	if err := r.validateBatch(entries); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.replica.Load() {
		return ErrReadOnlyReplica
	}
	if r.tree.Len() == 0 && len(entries) > 0 {
		// Empty registry: bulk-build the index balanced in one pass
		// instead of n incremental inserts with rebuild cascades. This is
		// the warm-up path (first Feed burst, a bulk hand-off) —
		// O(n log n) instead of O(n log^2 n) amortized. Each entry is
		// published first, so that its record carries its Seq into the
		// build; the records are a copy, leaving the caller's slice as it
		// was.
		recs := make([]RegistryEntry, len(entries)) //nc:allow(hotpath) warm-up path: one slice per bulk build
		for i, e := range entries {
			if e.UpdatedAt.IsZero() {
				e.UpdatedAt = now
			}
			e.Seq = r.feed.PublishUpsert(e)
			recs[i] = e // later duplicates win, as Build resolves them
		}
		if err := r.rebuildLocked(recs); err != nil {
			return err
		}
		r.upserts.Add(uint64(len(entries)))
		return nil
	}
	for i := range entries {
		ev := ChangeEvent{Op: ChangeUpsert, Entry: entries[i]}
		if ev.Entry.UpdatedAt.IsZero() {
			ev.Entry.UpdatedAt = now
		}
		if _, err := r.applyLocked(&ev); err != nil {
			return err
		}
	}
	return nil
}

// rebuildLocked replaces the store with one balanced build over
// entries, whole records, the last of a repeated id winning.
//
//nc:locked(r.mu)
func (r *Registry) rebuildLocked(entries []RegistryEntry) error {
	tree, err := index.Build(r.dim, entries)
	if err != nil {
		// Unreachable from UpsertBatch and load, which validate first:
		// validation is Build's only failure.
		//nc:allow(hotpath) unreachable wrap: inputs were pre-validated
		return fmt.Errorf("netcoord: registry upsert: %w", err)
	}
	r.tree = tree
	return nil
}

// applyLocked is the one place a single mutation — local or relayed —
// changes the registry: stream and store move together inside the
// caller's hold of the write lock, so no reader ever sees one without
// the other. A local mutation (ev.Seq == 0) is published
// under the stream's next sequence; a relayed event (a follower
// applying its upstream's stream) under the sequence, epoch and frame
// it carries, once the feed has judged it — changefeed.ErrStaleEpoch,
// ErrDuplicate and ErrGap come back with nothing changed. Everything
// that can refuse the event runs before the stream sees it. It reports
// whether the event was applied: a local remove of an absent id is not,
// and publishes nothing.
//
//nc:hotpath
//nc:locked(r.mu)
func (r *Registry) applyLocked(ev *ChangeEvent) (bool, error) {
	relayed := ev.Seq != 0
	if !relayed && r.replica.Load() {
		return false, ErrReadOnlyReplica
	}
	moved := false
	var slot int32
	switch ev.Op {
	case ChangeUpsert:
		// TTL heartbeats re-upsert unchanged coordinates constantly (stable
		// app-level coordinates are the norm); a pure refresh must not
		// churn the index with tombstone+reinsert cycles and the rebuilds
		// they trigger, so it rewrites the record in its slot.
		var existed bool
		slot, existed = r.tree.Lookup(ev.Entry.ID)
		if moved = !existed || !r.tree.Record(slot).Coord.Equal(ev.Entry.Coord); moved {
			if err := ev.Entry.Coord.Validate(r.dim); err != nil {
				//nc:allow(hotpath) validation-failure return: cold by definition
				return false, fmt.Errorf("netcoord: registry upsert %q: %w", ev.Entry.ID, err)
			}
		}
	case ChangeRemove:
		if _, present := r.tree.Lookup(ev.ID); !present && !relayed {
			return false, nil
		}
	case ChangeEvict:
	default:
		//nc:allow(hotpath) malformed-event return: cold by definition
		return false, fmt.Errorf("netcoord: registry: unknown change op %d (seq %d)", ev.Op, ev.Seq)
	}
	switch {
	case relayed:
		if err := r.feed.PublishAt(*ev); err != nil {
			return false, err
		}
	case ev.Op == ChangeUpsert:
		// The stored entry carries the sequence the stream assigned.
		ev.Entry.Seq = r.feed.PublishUpsert(ev.Entry)
	case ev.Op == ChangeRemove:
		r.feed.PublishRemove(ev.ID)
	default:
		// The feed chunks oversized sweeps into multiple events.
		r.feed.PublishEvict(ev.IDs)
	}
	switch ev.Op {
	case ChangeUpsert:
		if !moved {
			// Publishing left the tree alone, so the slot still holds the id.
			r.tree.Refresh(slot, ev.Entry)
		} else if err := r.tree.Put(ev.Entry); err != nil {
			// Unreachable: the coordinate was validated above, and
			// validation is the tree's only insert failure.
			//nc:allow(hotpath) unreachable wrap: input was pre-validated
			return false, fmt.Errorf("netcoord: registry upsert: %w", err)
		}
		r.upserts.Add(1)
	case ChangeRemove:
		if r.tree.Remove(ev.ID) {
			r.removes.Add(1)
		}
	case ChangeEvict:
		for _, id := range ev.IDs {
			if r.tree.Remove(id) {
				r.evictions.Add(1)
			}
		}
	}
	return true, nil
}

// applyRelayed applies one event of an upstream's stream under the
// sequence it carries; see applyLocked for what comes back.
//
//nc:hotpath
func (r *Registry) applyRelayed(ev *ChangeEvent) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.applyLocked(ev)
	return err
}

// Remove deletes a node, reporting whether it was present. On a
// read-only replica nothing is removed and it reports false.
func (r *Registry) Remove(id string) bool {
	ev := ChangeEvent{Op: ChangeRemove, ID: id}
	r.mu.Lock()
	defer r.mu.Unlock()
	applied, _ := r.applyLocked(&ev) // ErrReadOnlyReplica is the one error a local remove can meet; false says it
	return applied
}

// load installs a snapshot without publishing any of it — persistence
// recovery and a follower's (re-)bootstrap alike — and moves the stream
// to its seq and epoch in the same hold of the write lock, so
// SnapshotSince can never pair one side of the rewrite with the other.
// Entries keep the Seq and UpdatedAt they carry: chained delta
// snapshots depend on per-entry sequences surviving tiers.
//
// A full snapshot makes the state exactly its entries, the last of a
// repeated id winning — one balanced index build whether the registry
// was empty or not — and restarts the stream at seq with the
// snapshot's removal knowledge, floor and tombstones: the old ring no
// longer connects to the rewritten state, so every cursor is told and
// its owner resyncs, the same protocol it runs when it falls off the
// ring. A delta leaves untouched entries in place; its removals apply
// FIRST — an id removed and later re-upserted appears in both lists,
// and the entry (the newer state) must win — and the stream keeps its
// tombstone depth, gaining the delta's removals at their own
// sequences. Either way a relay keeps the removal knowledge its
// upstream had, so tiers below it repair with deltas of their own
// instead of cascading full transfers.
//
// Lock order: r.mu → the feed's mu, as on every publish; the feed's
// sinks take no lock.
func (r *Registry) load(s *RegistrySnapshot) error {
	if err := r.validateBatch(s.Entries); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Delta {
		for _, t := range s.Tombstones {
			if r.tree.Remove(t.ID) {
				r.removes.Add(1)
			}
		}
		for _, e := range s.Entries {
			if slot, ok := r.tree.Lookup(e.ID); ok && r.tree.Record(slot).Coord.Equal(e.Coord) {
				r.tree.Refresh(slot, e)
			} else if err := r.tree.Put(e); err != nil {
				// Unreachable: validated above.
				return fmt.Errorf("netcoord: registry load: %w", err)
			}
		}
		r.feed.AdvanceTo(s.Seq, s.Tombstones)
	} else {
		if err := r.rebuildLocked(s.Entries); err != nil {
			return err
		}
		r.feed.ResetTo(s.Seq, s.TombstoneFloor, s.Tombstones)
	}
	r.upserts.Add(uint64(len(s.Entries)))
	r.feed.SetEpoch(s.Epoch)
	return nil
}

// promote bumps the fencing epoch and lifts the replica guard (if it
// was up) in one hold of the write lock, and returns the new epoch: the
// first local mutation afterwards is the stream's next sequence under
// it. The caller has stopped whatever was relaying into this registry.
func (r *Registry) promote() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := r.feed.Epoch() + 1
	r.feed.SetEpoch(epoch)
	r.replica.Store(false)
	return epoch
}

// Get returns the stored entry for id.
func (r *Registry) Get(id string) (RegistryEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	slot, ok := r.tree.Lookup(id)
	if !ok {
		return RegistryEntry{}, false
	}
	return *r.tree.Record(slot), true
}

// Len reports the number of live entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tree.Len()
}

// Estimate predicts the RTT in milliseconds between two registered
// nodes.
func (r *Registry) Estimate(aID, bID string) (float64, error) {
	a, ok := r.Get(aID)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownID, aID)
	}
	b, ok := r.Get(bID)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownID, bID)
	}
	d, err := a.Coord.DistanceTo(b.Coord)
	if err != nil {
		return 0, fmt.Errorf("netcoord: registry estimate: %w", err)
	}
	return d, nil
}

// EvictStale removes every entry whose last upsert is older than the
// configured TTL, returning how many were evicted. The background
// janitor calls this; it is exported for deployments that prefer to
// drive eviction themselves.
func (r *Registry) EvictStale() int {
	if r.ttl <= 0 {
		return 0
	}
	cutoff := r.clock().Add(-r.ttl)
	stale := r.idsWhere(func(e RegistryEntry) bool { return e.UpdatedAt.Before(cutoff) })
	return r.evictIfStale(stale, cutoff)
}

// idsWhere scans for the ids of the entries pred accepts. The scan of
// the whole arena holds only the read lock, so queries proceed beside
// it.
func (r *Registry) idsWhere(pred func(RegistryEntry) bool) []string {
	var ids []string
	r.mu.RLock()
	defer r.mu.RUnlock()
	for e := range r.tree.All() {
		if pred(*e) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// evictIfStale evicts those of ids that are still stale under the write
// lock — a heartbeat that landed since the scan keeps its entry — as
// one mutation, published under that same lock hold like every other.
// It filters ids in place.
func (r *Registry) evictIfStale(ids []string, cutoff time.Time) int {
	if len(ids) == 0 {
		return 0
	}
	stale := ids[:0]
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if slot, ok := r.tree.Lookup(id); ok && r.tree.Record(slot).UpdatedAt.Before(cutoff) {
			stale = append(stale, id)
		}
	}
	if len(stale) == 0 {
		return 0
	}
	if applied, _ := r.applyLocked(&ChangeEvent{Op: ChangeEvict, IDs: stale}); !applied {
		return 0 // a replica: evictions are the leader's decision
	}
	return len(stale)
}

// Snapshot returns every live entry, sorted by id — for persistence,
// debugging, or bulk hand-off to another registry via UpsertBatch. One
// hold of the read lock copies the entries out; ordering comes after.
func (r *Registry) Snapshot() []RegistryEntry {
	entries, _ := r.SnapshotWithSeq()
	return entries
}

// collectLocked copies out the live entries keep accepts (nil accepts
// all); the caller holds the read lock.
//
//nc:locked(r.mu)
func (r *Registry) collectLocked(keep func(RegistryEntry) bool) []RegistryEntry {
	var found []RegistryEntry
	if keep == nil {
		found = make([]RegistryEntry, 0, r.tree.Len())
	}
	for e := range r.tree.All() {
		if keep == nil || keep(*e) {
			found = append(found, *e)
		}
	}
	return found
}

// sortedByID returns found sorted by id (nil when empty). The sort
// moves 16-byte (id key, position) pairs, not 88-byte entries, and each
// entry is then copied once into its place.
func sortedByID(found []RegistryEntry) []RegistryEntry {
	if len(found) == 0 {
		return nil
	}
	keys := make([]idKey, len(found))
	for i := range keys {
		keys[i].at = int32(i)
	}
	sortIDKeys(found, keys, 0)
	out := make([]RegistryEntry, len(found))
	for i, k := range keys {
		out[i] = found[k.at]
	}
	return out
}

// idKey is one entry's place in an id sort: the 8 bytes of its id the
// sort is at, big-endian, and the entry's position.
type idKey struct {
	key uint64
	at  int32
}

// sortIDKeys sorts keys by the ids of the entries they name, all of
// which agree on their first depth bytes: by the next 8 bytes of each id
// as one integer, shorter ids padded with zero bytes, so that most
// comparisons are one integer compare instead of a strings.Compare that
// chases each id and walks a prefix every id shares. A run that ties on
// those 8 bytes is re-keyed on the 8 after them, unless one of its ids
// ends inside them — padding cannot tell "a" from "a\x00" — in which
// case the run is sorted by strings.Compare.
func sortIDKeys(found []RegistryEntry, keys []idKey, depth int) {
	for i := range keys {
		keys[i].key = idChunk(found[keys[i].at].ID, depth)
	}
	slices.SortFunc(keys, func(a, b idKey) int { return cmp.Compare(a.key, b.key) })
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].key == keys[lo].key {
			hi++
		}
		if run := keys[lo:hi]; len(run) > 1 {
			if slices.ContainsFunc(run, func(k idKey) bool { return len(found[k.at].ID) <= depth+8 }) {
				slices.SortFunc(run, func(a, b idKey) int { return strings.Compare(found[a.at].ID, found[b.at].ID) })
			} else {
				sortIDKeys(found, run, depth+8)
			}
		}
		lo = hi
	}
}

// idChunk is bytes [depth, depth+8) of id as a big-endian integer, the
// bytes past its end taken as zero.
func idChunk(id string, depth int) uint64 {
	var b [8]byte
	if depth < len(id) {
		copy(b[:], id[depth:])
	}
	return binary.BigEndian.Uint64(b[:])
}

// Stats snapshots operational counters.
func (r *Registry) Stats() RegistryStats {
	st := RegistryStats{
		Upserts:    r.upserts.Load(),
		Removes:    r.removes.Load(),
		Queries:    r.queries.Load(),
		Evictions:  r.evictions.Load(),
		FeedErrors: r.feedErrors.Load(),
	}
	r.mu.RLock()
	ts := r.tree.Stats()
	r.mu.RUnlock()
	st.Entries = ts.Live
	st.IndexTombstones = ts.Tombstones
	st.IndexRebuilds = ts.Rebuilds
	st.IndexHeight = ts.Height
	return st
}

// Feed consumes a live node's application-level update channel and keeps
// the registry entry for id current — wire a Node's NodeConfig.Updates
// channel here and the registry tracks the cluster automatically. The
// feed stops when the channel closes, when the returned stop function is
// called, or when the registry is closed. Feed on a closed registry is a
// no-op and returns a stop function that does nothing.
func (r *Registry) Feed(id string, updates <-chan NodeUpdate) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(done) }) }
	r.lifeMu.Lock()
	select {
	case <-r.closed:
		r.lifeMu.Unlock()
		return stop
	default:
	}
	r.wg.Add(1)
	r.lifeMu.Unlock()
	go func() {
		defer r.wg.Done()
		for {
			select {
			case <-r.closed:
				return
			case <-done:
				return
			case u, ok := <-updates:
				if !ok {
					return
				}
				if err := r.Upsert(id, u.Coord, u.Error); err != nil {
					// A node emitting invalid coordinates is a bug, but
					// the registry must not wedge the feed; count it.
					r.feedErrors.Add(1)
				}
			}
		}
	}()
	return stop
}
