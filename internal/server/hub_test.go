package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcoord"
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

// TestWatchHubSkipsEventsBehindAReconcileJump: once the reconcile
// ticker has moved processed to the stream position and damaged
// everyone, the events still buffered below it are already covered —
// they must not cost a damage-everyone round each.
func TestWatchHubSkipsEventsBehindAReconcileJump(t *testing.T) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for i := 0; i < 4; i++ {
		if err := reg.Upsert(fmt.Sprintf("n%d", i), c3(float64(i*10), 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	shutdown := make(chan struct{})
	defer close(shutdown)
	hub := newWatchHub(reg, shutdown)
	w := hub.Watch("")
	defer hub.Detach(w)
	hubSync(t, hub, w, reg, c3(0, 0, 0), 2)

	const jump, stale = 1000, 50
	hub.mu.Lock()
	hub.processed.Store(jump)
	hub.mu.Unlock()
	before := hub.Stats()
	for seq := uint64(jump - stale + 1); seq <= jump; seq++ {
		if hub.processEvent(netcoord.ChangeEvent{Seq: seq, Op: netcoord.ChangeRemove, ID: "n0"}) {
			t.Fatalf("stale event %d (processed %d) reported a gap", seq, jump)
		}
	}
	if after := hub.Stats(); after.Resyncs != before.Resyncs || after.Damages != before.Damages || after.ProcessedSeq != jump || drainDamage(w) {
		t.Fatalf("%d stale events moved the hub: resyncs %d -> %d, damages %d -> %d, processed %d", stale, before.Resyncs, after.Resyncs, before.Damages, after.Damages, after.ProcessedSeq)
	}
	// The next in-order event routes through the damage map as usual.
	if hub.processEvent(netcoord.ChangeEvent{Seq: jump + 1, Op: netcoord.ChangeRemove, ID: "n0"}) || !drainDamage(w) {
		t.Fatal("in-order member removal after the jump did not route to its watcher")
	}
	if after := hub.Stats(); after.Resyncs != before.Resyncs || after.ProcessedSeq != jump+1 {
		t.Fatalf("in-order event after the jump: resyncs %d -> %d, processed %d", before.Resyncs, after.Resyncs, after.ProcessedSeq)
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
