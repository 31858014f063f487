package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcoord"
	"netcoord/internal/wire"
)

func c3(x, y, z float64) netcoord.Coordinate {
	return netcoord.Coordinate{Vec: []float64{x, y, z}}
}

// hubSync mirrors the /watch handler's recompute-and-install loop
// without the HTTP plumbing.
func hubSync(t testing.TB, hub *WatchHub, w *HubWatcher, reg *netcoord.Registry, origin netcoord.Coordinate, k int) []netcoord.Ranked {
	for {
		pre := hub.Processed()
		res, err := reg.Nearest(origin, k)
		if err != nil {
			t.Fatal(err)
		}
		if post := hub.SetInterest(w, origin, res, k); post == pre {
			return res
		}
	}
}

// drainDamage consumes any pending damage notification.
func drainDamage(w *HubWatcher) bool {
	select {
	case <-w.C():
		return true
	default:
		return false
	}
}

// TestWatchHubRoutesDamagePrecisely drives single events through the
// hub and asserts who wakes: the mechanism the whole fan-out economy
// rests on.
func TestWatchHubRoutesDamagePrecisely(t *testing.T) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for i := 0; i < 20; i++ {
		if err := reg.Upsert(fmt.Sprintf("n%02d", i), c3(float64(i*10), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	shutdown := make(chan struct{})
	defer close(shutdown)
	hub := newWatchHub(reg, shutdown)

	// Watcher near the origin (top-2 = n00, n01, kth = 10) and one far
	// away (top-2 = n19, n18 around x=190).
	near := hub.Watch("")
	defer hub.Detach(near)
	far := hub.Watch("")
	defer hub.Detach(far)
	hubSync(t, hub, near, reg, c3(0, 0, 0), 2)
	hubSync(t, hub, far, reg, c3(190, 0, 0), 2)

	await := func(cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("hub never drained the event")
			}
			time.Sleep(time.Millisecond)
		}
	}
	sync := func() { await(func() bool { return hub.Processed() == reg.ChangeSeq() }) }

	// An upsert inside the near watcher's ball damages it and not the
	// far one.
	if err := reg.Upsert("invader", c3(5, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	sync()
	if !drainDamage(near) {
		t.Fatal("near watcher not damaged by an upsert inside its k-th distance")
	}
	if drainDamage(far) {
		t.Fatal("far watcher damaged by an upsert 185ms outside its ball")
	}
	hubSync(t, hub, near, reg, c3(0, 0, 0), 2)

	// A heartbeat refresh (same coordinate) of a member damages nobody.
	if err := reg.Upsert("invader", c3(5, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	sync()
	if drainDamage(near) {
		t.Fatal("member heartbeat (unchanged coordinate) damaged its watcher")
	}

	// Removing a member damages its watcher only.
	reg.Remove("invader")
	sync()
	if !drainDamage(near) {
		t.Fatal("member removal did not damage its watcher")
	}
	if drainDamage(far) {
		t.Fatal("far watcher damaged by a removal outside its top-k")
	}
	hubSync(t, hub, near, reg, c3(0, 0, 0), 2)

	// Removing a non-member damages nobody.
	reg.Remove("n10")
	sync()
	if drainDamage(near) || drainDamage(far) {
		t.Fatal("non-member removal damaged a watcher")
	}
}

// awaitHub spins (no sleeping) until the hub's position reaches seq.
func awaitHub(t *testing.T, hub *WatchHub, seq uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); hub.Processed() != seq; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("hub stuck at %d, stream at %d", hub.Processed(), seq)
		}
	}
}

// bruteTopK is the k nearest of a registry's whole snapshot by direct
// distance computation.
func bruteTopK(t *testing.T, reg *netcoord.Registry, origin netcoord.Coordinate, k int) []string {
	t.Helper()
	snap := reg.Snapshot()
	sort.Slice(snap, func(i, j int) bool {
		di, _ := origin.DistanceTo(snap[i].Coord)
		dj, _ := origin.DistanceTo(snap[j].Coord)
		return di < dj
	})
	ids := make([]string, 0, k)
	for i := 0; i < k && i < len(snap); i++ {
		ids = append(ids, snap[i].ID)
	}
	return ids
}

// assertTopK fails unless res names exactly want, in order.
func assertTopK(t *testing.T, res []netcoord.Ranked, want []string) {
	t.Helper()
	if len(res) != len(want) {
		t.Fatalf("top-k %v, brute force says %v", res, want)
	}
	for i := range res {
		if res[i].ID != want[i] {
			t.Fatalf("top-k result %d = %s, brute force says %s", i, res[i].ID, want[i])
		}
	}
}

// TestWatchHubResyncsWhenTheRingOverwritesItsPosition: with a ring of
// 4 and the hub unable to route (its lock held) while 50 events are
// published, the ring overwrites the hub's position. The hub must
// resync exactly once — every watcher damaged, position jumped to the
// stream's, the skipped events counted — and a quiet recompute must
// land on the registry's exact top-k.
func TestWatchHubResyncsWhenTheRingOverwritesItsPosition(t *testing.T) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for i := 0; i < 10; i++ {
		if err := reg.Upsert(fmt.Sprintf("n%02d", i), c3(float64(i*10), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	shutdown := make(chan struct{})
	defer close(shutdown)
	hub := newWatchHub(reg, shutdown)
	origins := []netcoord.Coordinate{c3(0, 0, 0), c3(90, 0, 0), c3(500, 500, 500)}
	watchers := make([]*HubWatcher, len(origins))
	for i, o := range origins {
		watchers[i] = hub.Watch("")
		defer hub.Detach(watchers[i])
		hubSync(t, hub, watchers[i], reg, o, 3)
		drainDamage(watchers[i])
	}
	before := hub.Stats()

	hub.mu.Lock()
	for i := 0; i < 50; i++ {
		// Far from every watcher: only a resync can damage them all.
		if err := reg.Upsert(fmt.Sprintf("m%02d", i), c3(-1000-float64(i), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	hub.mu.Unlock()
	awaitHub(t, hub, reg.ChangeSeq())

	after := hub.Stats()
	if after.Resyncs != before.Resyncs+1 {
		t.Fatalf("resyncs %d -> %d, want exactly one", before.Resyncs, after.Resyncs)
	}
	if after.SubscriptionDropped == before.SubscriptionDropped {
		t.Fatalf("subscription_dropped stayed %d: the overwritten events were not counted", after.SubscriptionDropped)
	}
	if after.ProcessedSeq != reg.ChangeSeq() {
		t.Fatalf("processed_seq %d, stream at %d", after.ProcessedSeq, reg.ChangeSeq())
	}
	for i, w := range watchers {
		if !drainDamage(w) {
			t.Fatalf("watcher %d not damaged by the resync", i)
		}
	}
	for i, w := range watchers {
		assertTopK(t, hubSync(t, hub, w, reg, origins[i], 3), bruteTopK(t, reg, origins[i], 3))
	}
}

// fakeUpstream is a leader that serves whatever full snapshot the test
// sets, and answers a follower's next /changes poll with 410 when the
// test asks — so the follower re-bootstraps onto that snapshot, which
// may sit at any sequence, the current one or below it included.
type fakeUpstream struct {
	mu      sync.Mutex
	seq     uint64
	entries []netcoord.RegistryEntry
	gone    chan struct{}
}

func (u *fakeUpstream) set(seq uint64, entries []netcoord.RegistryEntry) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.seq, u.entries = seq, entries
}

func (u *fakeUpstream) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	u.mu.Lock()
	seq, entries := u.seq, u.entries
	u.mu.Unlock()
	switch req.URL.Path {
	case "/snapshot":
		var body bytes.Buffer
		if err := wire.WriteSnapshot(&body, "", &netcoord.RegistrySnapshot{Seq: seq, Entries: entries}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", wire.ContentTypeSnapshot)
		_, _ = w.Write(body.Bytes())
	case "/changes":
		select {
		case <-u.gone:
			http.Error(w, `{"error":"gone"}`, http.StatusGone)
		case <-time.After(50 * time.Millisecond):
			w.Header().Set("Content-Type", wire.ContentTypeFrames)
			_, _ = w.Write(wire.AppendBatchHeader(nil, wire.BatchHeader{Seq: seq}))
		case <-req.Context().Done():
		}
	default:
		http.NotFound(w, req)
	}
}

// TestWatchHubResyncsOnReloadAtEqualOrLowerSeq: a follower that
// re-bases onto a full snapshot at its own sequence, or below it,
// changes its state without moving its sequence forward. A parked
// /changes poller and a watcher must both wake, and the watcher's
// recompute must land on the new state's exact top-k.
func TestWatchHubResyncsOnReloadAtEqualOrLowerSeq(t *testing.T) {
	state := func(x float64, n int) []netcoord.RegistryEntry {
		entries := make([]netcoord.RegistryEntry, n)
		for i := range entries {
			entries[i] = netcoord.RegistryEntry{ID: fmt.Sprintf("e%.0f-%d", x, i), Coord: c3(x+float64(i), 0, 0), Seq: uint64(i + 1)}
		}
		return entries
	}
	up := &fakeUpstream{gone: make(chan struct{}, 1)}
	up.set(10, state(100, 6))
	ts := httptest.NewServer(up)
	defer ts.Close()
	f := startTestFollower(t, ts.URL)
	s := New(Config{Registry: f.Registry, Follower: f})
	defer s.Stop()

	const k = 3
	origin := c3(0, 0, 0)
	w := s.hub.Watch("")
	defer s.hub.Detach(w)
	hubSync(t, s.hub, w, f.Registry, origin, k)
	drainDamage(w)

	for _, tc := range []struct {
		name string
		seq  uint64
		x    float64
	}{{"equal", 10, 40}, {"lower", 4, 20}} {
		t.Run(tc.name, func(t *testing.T) {
			poller := s.hub.Changed() // what a parked /changes long-poll holds
			bootstraps := f.FollowerStats().Bootstraps
			resyncs := s.hub.Stats().Resyncs
			up.set(tc.seq, state(tc.x, 5))
			up.gone <- struct{}{}
			select {
			case <-poller:
			case <-time.After(10 * time.Second):
				t.Fatalf("parked poller slept through a reload at seq %d", tc.seq)
			}
			select {
			case <-w.C():
			case <-time.After(10 * time.Second):
				t.Fatalf("watcher slept through a reload at seq %d", tc.seq)
			}
			// The follower counts its bootstrap once load has returned.
			for deadline := time.Now().Add(10 * time.Second); f.FollowerStats().Bootstraps == bootstraps; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatal("the follower never finished its re-bootstrap")
				}
			}
			if f.FollowerStats().Bootstraps != bootstraps+1 || f.ChangeSeq() != tc.seq {
				t.Fatalf("premise: bootstraps %d -> %d, seq %d; want one reload at seq %d", bootstraps, f.FollowerStats().Bootstraps, f.ChangeSeq(), tc.seq)
			}
			if got := s.hub.Stats().Resyncs; got != resyncs+1 {
				t.Fatalf("resyncs %d -> %d, want one", resyncs, got)
			}
			awaitHub(t, s.hub, tc.seq)
			assertTopK(t, hubSync(t, s.hub, w, f.Registry, origin, k), bruteTopK(t, f.Registry, origin, k))
		})
	}
}

// TestWatchHubStressRace churns watcher attach/detach against a
// mutation storm with -race watching the locks. After the storm
// quiesces, every surviving watcher must converge on the registry's
// true top-k — the hub may over-damage but can never lose a wakeup a
// watcher needed.
func TestWatchHubStressRace(t *testing.T) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const population = 512
	for i := 0; i < population; i++ {
		if err := reg.Upsert(fmt.Sprintf("n%04d", i), c3(float64(i%31)*4, float64(i%17)*4, float64(i%7)*4), 0); err != nil {
			t.Fatal(err)
		}
	}
	shutdown := make(chan struct{})
	defer close(shutdown)
	hub := newWatchHub(reg, shutdown)

	// One watcher held attached across the whole storm, deliberately
	// immature (no SetInterest): every drained event must damage it.
	// The churning watchers below can't guarantee overlap with the drain
	// — the hub's 4096-slot buffer usually keeps it ahead of the storm,
	// with no overflow→resync round to damage-all — so this is what pins
	// the damage path as exercised.
	idle := hub.Watch("")

	const (
		watcherGoroutines = 8
		mutators          = 4
		mutationsEach     = 2000
	)
	var storm sync.WaitGroup
	stormDone := make(chan struct{})
	for m := 0; m < mutators; m++ {
		storm.Add(1)
		go func(m int) {
			defer storm.Done()
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < mutationsEach; i++ {
				id := fmt.Sprintf("n%04d", rng.Intn(population))
				switch rng.Intn(10) {
				case 0:
					reg.Remove(id)
				default:
					_ = reg.Upsert(id, c3(rng.Float64()*120, rng.Float64()*60, rng.Float64()*25), 0)
				}
			}
		}(m)
	}

	// Watcher churn: attach, live a little (recomputing on damage like
	// the handler does), detach, repeat.
	var churns atomic.Uint64
	var watchers sync.WaitGroup
	for g := 0; g < watcherGoroutines; g++ {
		watchers.Add(1)
		go func(g int) {
			defer watchers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for life := 0; ; life++ {
				// Guarantee real churn even when the storm outpaces us
				// (a -race-free run finishes mutating in milliseconds):
				// every goroutine attaches and detaches at least three
				// times before it may exit.
				if life >= 3 {
					select {
					case <-stormDone:
						return
					default:
					}
				}
				w := hub.Watch("")
				origin := c3(rng.Float64()*120, rng.Float64()*60, rng.Float64()*25)
				k := 1 + rng.Intn(6)
				hubSync(t, hub, w, reg, origin, k)
				for beat := 0; beat < 10; beat++ {
					select {
					case <-w.C():
						hubSync(t, hub, w, reg, origin, k)
					case <-time.After(200 * time.Microsecond):
					}
				}
				hub.Detach(w)
				churns.Add(1)
			}
		}(g)
	}
	storm.Wait()
	close(stormDone)
	watchers.Wait()
	if churns.Load() == 0 {
		t.Fatal("stress produced no watcher churn")
	}

	// Quiesce: the storm's tail may have been dropped by subscription
	// overflow (a counted gap, repaired by damage-all), so Processed
	// cannot be compared to ChangeSeq directly — drive a sentinel event
	// through instead and wait for the hub to see it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := reg.Upsert("sentinel", c3(999, 999, 0), 0); err != nil {
			t.Fatal(err)
		}
		target := reg.ChangeSeq()
		settled := false
		for !settled && time.Now().Before(deadline) {
			settled = hub.Processed() >= target
			runtime.Gosched()
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub stuck at %d, stream at %d", hub.Processed(), target)
		}
	}

	// Audit: fresh watchers installed through the same path see exactly
	// the registry's truth, and the damage map is empty once they
	// detach.
	for i := 0; i < 32; i++ {
		w := hub.Watch("")
		origin := c3(float64(i*3), float64(i%5)*7, 0)
		got := hubSync(t, hub, w, reg, origin, 4)
		want, err := reg.Nearest(origin, 4)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if j >= len(got) || got[j].ID != want[j].ID {
				t.Fatalf("post-storm watcher %d sees %v, registry says %v", i, got, want)
			}
		}
		hub.Detach(w)
	}
	hub.Detach(idle)
	st := hub.Stats()
	if st.Watchers != 0 || st.Cells != 0 || st.Levels != 0 {
		t.Fatalf("damage map not empty after all watchers detached: %+v", st)
	}
	if st.EventsProcessed == 0 || st.Damages == 0 {
		t.Fatalf("stress exercised nothing: %+v", st)
	}
}

// TestSyncWatchCarriesRacingDamage keeps the hub's position moving on
// every attempt of syncWatch's capped loop: the loop must give up after
// watchSyncLimit+1 queries, re-damage the watcher so it wakes again,
// and a follow-up sync on a quiet stream must land on the registry's
// exact top-k.
func TestSyncWatchCarriesRacingDamage(t *testing.T) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for i := 0; i < 10; i++ {
		if err := reg.Upsert(fmt.Sprintf("n%02d", i), c3(float64(i*10+1), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Registry: reg})
	defer s.Stop()
	watcher := s.hub.Watch("")
	defer s.hub.Detach(watcher)

	const k = 3
	origin := c3(0, 0, 0)
	query := func() ([]netcoord.Ranked, netcoord.Coordinate, error) {
		res, err := reg.Nearest(origin, k)
		return res, origin, err
	}
	runs := 0
	racing := func() ([]netcoord.Ranked, netcoord.Coordinate, error) {
		runs++
		// A fresh id far outside the top-k ball: only the immature first
		// attempt is damaged by it, and that signal is drained below, so
		// a pending signal after syncWatch can only come from the loop's
		// own re-damage.
		if err := reg.Upsert(fmt.Sprintf("far%d", runs), c3(1000+float64(runs), 0, 0), 0); err != nil {
			return nil, netcoord.Coordinate{}, err
		}
		seq := reg.ChangeSeq()
		deadline := time.Now().Add(5 * time.Second)
		for s.hub.Processed() < seq {
			if time.Now().After(deadline) {
				return nil, netcoord.Coordinate{}, fmt.Errorf("hub never processed seq %d", seq)
			}
			time.Sleep(time.Millisecond)
		}
		drainDamage(watcher)
		return query()
	}
	if _, _, err := s.syncWatch(watcher, racing, k); err != nil {
		t.Fatal(err)
	}
	if runs != watchSyncLimit+1 {
		t.Fatalf("recompute ran %d times, want watchSyncLimit+1 = %d", runs, watchSyncLimit+1)
	}
	if !drainDamage(watcher) {
		t.Fatal("capped sync loop did not re-damage its watcher")
	}

	got, seq, err := s.syncWatch(watcher, query, k)
	if err != nil {
		t.Fatal(err)
	}
	if seq != reg.ChangeSeq() {
		t.Fatalf("quiet sync at seq %d, stream at %d", seq, reg.ChangeSeq())
	}
	snap := reg.Snapshot()
	sort.Slice(snap, func(i, j int) bool {
		di, _ := origin.DistanceTo(snap[i].Coord)
		dj, _ := origin.DistanceTo(snap[j].Coord)
		return di < dj
	})
	if len(got) != k {
		t.Fatalf("quiet sync returned %d results, want %d", len(got), k)
	}
	for i := range got {
		if got[i].ID != snap[i].ID {
			t.Fatalf("quiet sync result %d = %s, brute force says %s", i, got[i].ID, snap[i].ID)
		}
	}
}
