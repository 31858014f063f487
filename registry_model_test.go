package netcoord

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"netcoord/internal/index"
	"netcoord/internal/xrand"
)

// TestRegistryMatchesMapModel drives a registry through a seeded mix of
// every mutation it has beside a plain map of what it must hold: new
// upserts, moves, heartbeats, removes of present and absent ids, TTL
// evictions under a fake clock, UpsertBatch into an empty registry and
// into a populated one (duplicate ids, unstamped entries, a refused
// batch), and full and delta loads, with enough churn to set off
// tombstone and doubling rebuilds. After every step it holds Get, Len,
// Snapshot, the stream's sequence and DeltaSince to the model, an
// eviction's ids to the ones the model finds stale, and every few steps
// kNN and radius answers to index.Brute over the model.
func TestRegistryMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := newRegistryModel(t, seed)
			for step := 0; step < 1500; step++ {
				m.step()
				m.check(step)
			}
			if m.emptyBatches == 0 || m.maxRebuilds == 0 || m.maxTombstones == 0 || m.evicted == 0 {
				t.Fatalf("the mix missed a path: %d batches into an empty registry, %d rebuilds, %d tombstones, %d evictions",
					m.emptyBatches, m.maxRebuilds, m.maxTombstones, m.evicted)
			}
		})
	}
}

const (
	modelIDs = 300
	modelTTL = time.Minute
)

// registryModel is the registry under test and the map it must match.
type registryModel struct {
	t   *testing.T
	r   *Registry
	rng *xrand.Stream
	now time.Time

	entries map[string]RegistryEntry
	seq     uint64
	// states holds the model's state at recent sequences since the last
	// full load, the points DeltaSince is asked to bridge.
	states map[uint64]map[string]RegistryEntry

	emptyBatches, evicted      int
	maxRebuilds, maxTombstones uint64
}

func newRegistryModel(t *testing.T, seed uint64) *registryModel {
	m := &registryModel{
		t:       t,
		rng:     xrand.NewStream(seed),
		now:     time.Unix(1_700_000_000, 0),
		entries: map[string]RegistryEntry{},
		states:  map[uint64]map[string]RegistryEntry{0: {}},
	}
	// newRegistry starts no janitor: evictions happen when the test says.
	r, err := newRegistry(RegistryConfig{Dimension: 3, TTL: modelTTL, Clock: func() time.Time { return m.now }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	m.r = r
	return m
}

func (m *registryModel) id() string { return fmt.Sprintf("n%04d", m.rng.Intn(modelIDs)) }

// present returns a stored id, or "" when the model is empty.
func (m *registryModel) present() string {
	if len(m.entries) == 0 {
		return ""
	}
	ids := slices.Sorted(maps.Keys(m.entries))
	return ids[m.rng.Intn(len(ids))]
}

// coordFor is a new random coordinate, or — for a heartbeat — a copy of
// the stored one: equal values in a vector of its own, as a decoded
// request carries them.
func (m *registryModel) coordFor(id string, heartbeat bool) Coordinate {
	if e, ok := m.entries[id]; ok && heartbeat {
		return e.Coord.Clone()
	}
	return testCoord(m.rng, 3)
}

func (m *registryModel) step() {
	m.now = m.now.Add(time.Duration(m.rng.Intn(1000)) * time.Millisecond)
	switch p := m.rng.Float64(); {
	case p < 0.25:
		m.upsert(m.id(), false)
	case p < 0.50:
		if id := m.present(); id != "" {
			m.upsert(id, true)
		}
	case p < 0.60:
		if id := m.present(); id != "" {
			m.upsert(id, false)
		}
	case p < 0.67:
		m.remove()
	case p < 0.75:
		m.evict()
	case p < 0.85:
		m.batch()
	case p < 0.89:
		m.fullLoad()
	default:
		m.deltaLoad()
	}
}

func (m *registryModel) upsert(id string, heartbeat bool) {
	c := m.coordFor(id, heartbeat)
	errW := m.rng.Uniform(0, 1)
	if err := m.r.Upsert(id, c, errW); err != nil {
		m.t.Fatalf("Upsert(%s): %v", id, err)
	}
	m.seq++
	m.entries[id] = RegistryEntry{ID: id, Coord: c, Error: errW, UpdatedAt: m.now, Seq: m.seq}
}

func (m *registryModel) remove() {
	id := m.present()
	if id == "" || m.rng.Bernoulli(0.25) {
		id = fmt.Sprintf("absent%d", m.rng.Intn(10))
	}
	_, want := m.entries[id]
	if got := m.r.Remove(id); got != want {
		m.t.Fatalf("Remove(%s) = %v, want %v", id, got, want)
	}
	if want {
		m.seq++
		delete(m.entries, id)
	}
}

// evict moves the clock on and sweeps: the registry must evict exactly
// the entries the model finds stale, in events on its stream.
func (m *registryModel) evict() {
	m.now = m.now.Add(time.Duration(m.rng.Intn(30)) * time.Second)
	cutoff := m.now.Add(-modelTTL)
	var stale []string
	for id, e := range m.entries {
		if e.UpdatedAt.Before(cutoff) {
			stale = append(stale, id)
		}
	}
	if n := m.r.EvictStale(); n != len(stale) {
		m.t.Fatalf("EvictStale = %d, want %d", n, len(stale))
	}
	if len(stale) == 0 {
		return
	}
	evs, err := m.r.ChangesSince(m.seq, 0)
	if err != nil {
		m.t.Fatal(err)
	}
	var got []string
	for _, ev := range evs {
		if ev.Op != ChangeEvict || ev.Seq != m.seq+1 {
			m.t.Fatalf("eviction published %v at seq %d, want an eviction at %d", ev.Op, ev.Seq, m.seq+1)
		}
		m.seq++
		got = append(got, ev.IDs...)
	}
	slices.Sort(got)
	slices.Sort(stale)
	if !slices.Equal(got, stale) {
		m.t.Fatalf("evicted %v, want %v", got, stale)
	}
	for _, id := range stale {
		delete(m.entries, id)
	}
	m.evicted += len(stale)
}

// batchEntries is a batch over random ids, repeating one on purpose,
// with heartbeats and moves, some entries unstamped.
func (m *registryModel) batchEntries(n int) []RegistryEntry {
	batch := make([]RegistryEntry, n)
	for i := range batch {
		id := m.id()
		if i > 0 && m.rng.Bernoulli(0.1) {
			id = batch[m.rng.Intn(i)].ID
		}
		e := RegistryEntry{ID: id, Coord: m.coordFor(id, m.rng.Bernoulli(0.5)), Error: m.rng.Uniform(0, 1)}
		if m.rng.Bernoulli(0.5) {
			e.UpdatedAt = m.now.Add(-time.Duration(m.rng.Intn(20)) * time.Second)
		}
		batch[i] = e
	}
	return batch
}

func (m *registryModel) batch() {
	batch := m.batchEntries(1 + m.rng.Intn(40))
	if m.rng.Bernoulli(0.05) {
		// One bad entry anywhere refuses the whole batch.
		batch[m.rng.Intn(len(batch))].Coord = Origin(2)
		if err := m.r.UpsertBatch(batch); err == nil {
			m.t.Fatal("UpsertBatch took a wrong-dimension entry")
		}
		return
	}
	if len(m.entries) == 0 {
		m.emptyBatches++
	}
	given := slices.Clone(batch)
	if err := m.r.UpsertBatch(batch); err != nil {
		m.t.Fatalf("UpsertBatch: %v", err)
	}
	for i, e := range batch {
		if !sameEntry(e, given[i]) {
			m.t.Fatalf("UpsertBatch rewrote its input: %+v, was %+v", e, given[i])
		}
		m.seq++
		if e.UpdatedAt.IsZero() {
			e.UpdatedAt = m.now
		}
		e.Seq = m.seq
		m.entries[e.ID] = e
	}
}

// loadEntries is a load's entries: random ids, some repeated (the last
// wins), coordinates equal to the stored ones or not, each carrying a
// sequence in [lo, hi] and a timestamp of its own.
func (m *registryModel) loadEntries(n int, lo, hi uint64) []RegistryEntry {
	entries := m.batchEntries(n)
	for i := range entries {
		entries[i].Seq = lo + m.rng.Uint64()%(hi-lo+1)
		entries[i].UpdatedAt = m.now.Add(-time.Duration(m.rng.Intn(40)) * time.Second)
	}
	return entries
}

// fullLoad replaces the state, as a (re-)bootstrap does, at a sequence
// above or below the current one; one in four loads nothing, and a
// batch into the emptied registry follows it.
func (m *registryModel) fullLoad() {
	seq := m.seq/2 + 1 + m.rng.Uint64()%(m.seq+50)
	var entries []RegistryEntry
	if !m.rng.Bernoulli(0.25) {
		entries = m.loadEntries(m.rng.Intn(2*modelIDs), 1, seq)
	}
	if err := m.r.load(entries, nil, false, seq, m.r.ChangeEpoch()); err != nil {
		m.t.Fatalf("full load: %v", err)
	}
	m.entries = map[string]RegistryEntry{}
	for _, e := range entries {
		m.entries[e.ID] = e
	}
	m.seq = seq
	m.states = map[uint64]map[string]RegistryEntry{}
	if len(entries) == 0 {
		m.check(-1)
		m.batch()
	}
}

// deltaLoad applies a delta snapshot: removals first, then entries
// changed after the current sequence, up to the delta's.
func (m *registryModel) deltaLoad() {
	seq := m.seq + 1 + m.rng.Uint64()%20
	var removed []string
	for range m.rng.Intn(8) {
		if id := m.present(); id != "" && m.rng.Bernoulli(0.8) {
			removed = append(removed, id)
		} else {
			removed = append(removed, m.id())
		}
	}
	entries := m.loadEntries(m.rng.Intn(30), m.seq+1, seq)
	if err := m.r.load(entries, removed, true, seq, m.r.ChangeEpoch()); err != nil {
		m.t.Fatalf("delta load: %v", err)
	}
	for _, id := range removed {
		delete(m.entries, id)
	}
	for _, e := range entries {
		m.entries[e.ID] = e
	}
	m.seq = seq
}

// check holds everything the registry answers to the model.
func (m *registryModel) check(step int) {
	t, r := m.t, m.r
	t.Helper()
	if got := r.ChangeSeq(); got != m.seq {
		t.Fatalf("step %d: ChangeSeq = %d, want %d", step, got, m.seq)
	}
	if got := r.Len(); got != len(m.entries) {
		t.Fatalf("step %d: Len = %d, want %d", step, got, len(m.entries))
	}
	for i := range modelIDs {
		id := fmt.Sprintf("n%04d", i)
		got, ok := r.Get(id)
		want, wantOK := m.entries[id]
		if ok != wantOK || ok && !sameEntry(got, want) {
			t.Fatalf("step %d: Get(%s) = %+v %v, want %+v %v", step, id, got, ok, want, wantOK)
		}
	}
	snap := r.Snapshot()
	if len(snap) != len(m.entries) {
		t.Fatalf("step %d: Snapshot holds %d entries, want %d", step, len(snap), len(m.entries))
	}
	for i, e := range snap {
		if i > 0 && snap[i-1].ID >= e.ID {
			t.Fatalf("step %d: Snapshot out of id order at %s", step, e.ID)
		}
		if want := m.entries[e.ID]; !sameEntry(e, want) {
			t.Fatalf("step %d: Snapshot has %+v, want %+v", step, e, want)
		}
	}
	st := r.Stats()
	if st.Entries != len(m.entries) {
		t.Fatalf("step %d: Stats.Entries = %d, want %d", step, st.Entries, len(m.entries))
	}
	m.maxRebuilds = max(m.maxRebuilds, st.IndexRebuilds)
	m.maxTombstones = max(m.maxTombstones, uint64(st.IndexTombstones))

	m.states[m.seq] = maps.Clone(m.entries)
	for len(m.states) > 64 {
		delete(m.states, slices.Min(slices.Collect(maps.Keys(m.states))))
	}
	m.checkDelta(step)
	if step%10 == 0 {
		m.checkQueries(step)
	}
}

// checkDelta asks DeltaSince to bridge from a recorded state to now:
// its entries must be exactly those changed since, and applying it to
// the state it starts from must give the current one. A since past the
// stream's sequence must be refused.
func (m *registryModel) checkDelta(step int) {
	t := m.t
	t.Helper()
	if _, _, _, ok := m.r.DeltaSince(m.seq + 1); ok {
		t.Fatalf("step %d: DeltaSince(%d) past seq %d answered", step, m.seq+1, m.seq)
	}
	sinces := slices.Sorted(maps.Keys(m.states))
	since := sinces[m.rng.Intn(len(sinces))]
	entries, removed, seq, ok := m.r.DeltaSince(since)
	if !ok || seq != m.seq {
		t.Fatalf("step %d: DeltaSince(%d) = seq %d ok %v, want seq %d ok", step, since, seq, ok, m.seq)
	}
	var changed []string
	for id, e := range m.entries {
		if e.Seq > since {
			changed = append(changed, id)
		}
	}
	slices.Sort(changed)
	if len(entries) != len(changed) {
		t.Fatalf("step %d: DeltaSince(%d) has %d entries, want %d", step, since, len(entries), len(changed))
	}
	state := maps.Clone(m.states[since])
	for _, id := range removed {
		delete(state, id)
	}
	for i, e := range entries {
		if e.ID != changed[i] || !sameEntry(e, m.entries[e.ID]) {
			t.Fatalf("step %d: DeltaSince(%d) entry %d is %+v, want %+v", step, since, i, e, m.entries[changed[i]])
		}
		state[e.ID] = e
	}
	if !maps.EqualFunc(state, m.entries, sameEntry) {
		t.Fatalf("step %d: state at %d plus DeltaSince(%d) is not the state at %d", step, since, since, m.seq)
	}
}

// checkQueries holds kNN and radius answers to index.Brute over the
// model's coordinates.
func (m *registryModel) checkQueries(step int) {
	t := m.t
	t.Helper()
	brute, err := index.NewBrute(3)
	if err != nil {
		t.Fatal(err)
	}
	for id, e := range m.entries {
		if err := brute.Insert(id, e.Coord); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		q := testCoord(m.rng, 3)
		k := 1 + m.rng.Intn(12)
		got, err := m.r.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := brute.KNearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, fmt.Sprintf("step %d: Nearest(k=%d)", step, k), got, want)
		radius := m.rng.Uniform(0, 120)
		got, err = m.r.Within(q, radius)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = brute.Within(q, radius); err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, fmt.Sprintf("step %d: Within(%.1f)", step, radius), got, want)
	}
}

func sameAnswer(t *testing.T, what string, got []Ranked, want []index.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].EstimatedRTT != want[i].Distance {
			t.Fatalf("%s: result %d is %s at %v, want %s at %v", what, i, got[i].ID, got[i].EstimatedRTT, want[i].ID, want[i].Distance)
		}
	}
}

// sameEntry compares entries field by field: coordinates by value, so a
// refresh that keeps the stored vector matches the equal one it was
// given.
func sameEntry(a, b RegistryEntry) bool {
	return a.ID == b.ID && a.Coord.Equal(b.Coord) && math.Float64bits(a.Error) == math.Float64bits(b.Error) &&
		a.UpdatedAt.Equal(b.UpdatedAt) && a.Seq == b.Seq
}
