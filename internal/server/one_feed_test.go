package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcoord"
	"netcoord/internal/faultproxy"
	"netcoord/internal/wire"
)

// streamReplay rebuilds a registry's state from its change stream, one
// dense run of events at a time, so a snapshot pair taken at seq can be
// held to "exactly the stream's state at seq".
type streamReplay struct {
	src     *netcoord.Registry
	seq     uint64
	state   map[string]netcoord.RegistryEntry
	removes []netcoord.ChangeEvent // remove and evict events, in order
}

// advance replays the stream up to seq (the ring is sized to hold the
// whole run, so history never truncates).
func (r *streamReplay) advance(seq uint64) error {
	if seq < r.seq {
		return fmt.Errorf("stream went backwards: asked for %d after %d", seq, r.seq)
	}
	if seq == r.seq {
		return nil
	}
	evs, err := r.src.ChangesSince(r.seq, int(seq-r.seq))
	if err != nil || uint64(len(evs)) != seq-r.seq {
		return fmt.Errorf("ChangesSince(%d, %d) = %d events, %v", r.seq, seq-r.seq, len(evs), err)
	}
	for _, ev := range evs {
		if ev.Seq != r.seq+1 {
			return fmt.Errorf("history not dense: event %d after %d", ev.Seq, r.seq)
		}
		r.seq = ev.Seq
		switch ev.Op {
		case netcoord.ChangeUpsert:
			r.state[ev.Entry.ID] = ev.Entry
		case netcoord.ChangeRemove:
			delete(r.state, ev.ID)
			r.removes = append(r.removes, ev)
		case netcoord.ChangeEvict:
			for _, id := range ev.IDs {
				delete(r.state, id)
			}
			r.removes = append(r.removes, ev)
		}
	}
	return nil
}

// check holds one returned (entries, seq) pair — everything changed
// after since, or everything for a full snapshot — to the replayed
// state at seq.
func (r *streamReplay) check(what string, entries []netcoord.RegistryEntry, since, seq uint64, full bool) error {
	if err := r.advance(seq); err != nil {
		return err
	}
	want := 0
	for _, e := range r.state {
		if full || e.Seq > since {
			want++
		}
	}
	for _, e := range entries {
		if e.Seq > seq {
			return fmt.Errorf("%s at seq %d returned %q with seq %d: state ran ahead of the sequence it is served with", what, seq, e.ID, e.Seq)
		}
		w, ok := r.state[e.ID]
		if !ok || w.Seq != e.Seq || !w.Coord.Equal(e.Coord) || !w.UpdatedAt.Equal(e.UpdatedAt) {
			return fmt.Errorf("%s at seq %d: entry %+v, replaying the stream to %d gives %+v (present %v)", what, seq, e, seq, w, ok)
		}
	}
	if len(entries) != want {
		return fmt.Errorf("%s at seq %d: %d entries, replaying the stream to %d gives %d", what, seq, len(entries), seq, want)
	}
	return nil
}

// checkRemoved holds a delta's tombstones to the removals the stream
// made in (since, seq], each at its own sequence.
func (r *streamReplay) checkRemoved(what string, tombs []wire.Tombstone, since, seq uint64) error {
	if err := r.advance(seq); err != nil {
		return err
	}
	want := map[wire.Tombstone]bool{}
	for _, ev := range r.removes {
		if ev.Seq <= since {
			continue
		}
		if ev.Op == netcoord.ChangeRemove {
			want[wire.Tombstone{Seq: ev.Seq, ID: ev.ID}] = true
		}
		for _, id := range ev.IDs {
			want[wire.Tombstone{Seq: ev.Seq, ID: id}] = true
		}
	}
	got := map[wire.Tombstone]bool{}
	for _, t := range tombs {
		got[t] = true
	}
	if len(got) != len(want) || len(tombs) != len(want) {
		return fmt.Errorf("%s (%d, %d]: tombstones %v, the stream removed %v", what, since, seq, tombs, want)
	}
	for t := range want {
		if !got[t] {
			return fmt.Errorf("%s (%d, %d]: tombstones %v lack %v", what, since, seq, tombs, t)
		}
	}
	return nil
}

// TestEveryRegistryServesItsStream: a registry built from a zero
// RegistryConfig serves the whole stream surface through the server's
// one handle — there is no stream-disabled mode to fall into.
func TestEveryRegistryServesItsStream(t *testing.T) {
	ts, _ := newTestServiceReg(t, netcoord.RegistryConfig{})
	for i := 0; i < 3; i++ {
		if code, out := postJSON(t, ts.URL+"/upsert", fmt.Sprintf(`{"id":"n%d","coord":{"vec":[%d,0,0]}}`, i, i)); code != http.StatusOK {
			t.Fatalf("upsert %d: %d %v", i, code, out)
		}
	}
	code, out := getJSON(t, ts.URL+"/changes?since=0")
	if evs, _ := out["events"].([]any); code != http.StatusOK || len(evs) != 3 || out["seq"] != 3.0 {
		t.Fatalf("/changes?since=0: %d %v; want 200 with 3 events at seq 3", code, out)
	}
	openWatch(t, ts.URL, "vec=0,0,0&k=2") // fails unless the first frame is a snapshot
	for _, path := range []string{"/snapshot", "/stats"} {
		if code, out := getJSON(t, ts.URL+path); code != http.StatusOK || out["seq"] != 3.0 {
			t.Fatalf("%s: %d, seq %v; want 200 at seq 3", path, code, out["seq"])
		}
	}
}

// TestSnapshotPairIsExact: under a writer storm, SnapshotWithSeq and
// DeltaSince on the leader and on a live follower return the stream's
// state at exactly the seq they return — no entry newer than it, none
// missing — because state and stream change in one hold of the
// registry's write lock and both calls read under its read lock.
func TestSnapshotPairIsExact(t *testing.T) {
	const ring = 1 << 15 // holds the whole run: replay from 0 never truncates
	const ops = 20_000
	leaderTS, leader := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: ring})
	f, err := netcoord.StartFollower(netcoord.FollowerConfig{
		Upstreams:   []string{leaderTS.URL},
		Registry:    netcoord.RegistryConfig{ChangeStreamBuffer: ring},
		WaitTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	t.Cleanup(f.Close)

	var stormOver atomic.Bool
	var readers sync.WaitGroup
	for _, tier := range []struct {
		name string
		src  *netcoord.Registry
	}{{"leader", leader}, {"follower", f.Registry}} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			replay := &streamReplay{src: tier.src, state: map[string]netcoord.RegistryEntry{}}
			for last := false; !last; {
				last = stormOver.Load() // one more pass over the settled state
				entries, seq := tier.src.SnapshotWithSeq()
				err := replay.check(tier.name+" SnapshotWithSeq", entries, 0, seq, true)
				since := max(seq/2, 1) // since 0 asks for the full state
				d := tier.src.SnapshotSince(since)
				if !d.Delta && since <= seq {
					t.Errorf("%s SnapshotSince(%d) refused a delta with the tombstone ring sized for the run", tier.name, since)
					return
				}
				if err == nil && d.Delta {
					err = replay.check(tier.name+" SnapshotSince", d.Entries, since, d.Seq, false)
				}
				if err == nil && d.Delta {
					err = replay.checkRemoved(tier.name+" SnapshotSince", d.Tombstones, since, d.Seq)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for i := 0; i < ops; i++ {
		id := fmt.Sprintf("n%02d", i%64)
		switch {
		case i%7 == 3:
			leader.Remove(id)
		case i%2 == 0: // a move
			err = leader.Upsert(id, netcoord.Coordinate{Vec: []float64{float64(i % 97), float64(i % 13), 0}}, 0.1)
		default: // a heartbeat: same coordinate as the move before it, if the id is still there
			if e, ok := leader.Get(id); ok {
				err = leader.Upsert(id, e.Coord, 0.1)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, f, leader)
	stormOver.Store(true)
	readers.Wait()
	assertReplicaIdentical(t, f, leader)
}

// TestReplicaRefusesLocalWrites: an unpromoted follower's registry is
// read-only through every mutation entry point — a local write would be
// numbered into the leader's sequence space — and nothing about it
// moves; after Promote the next local write is seq+1 under epoch+1.
func TestReplicaRefusesLocalWrites(t *testing.T) {
	leaderTS, leader := newTestServiceReg(t, netcoord.RegistryConfig{})
	postJSON(t, leaderTS.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}}]}`)
	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leader)
	// One relayed event, so the stream has something to compare.
	postJSON(t, leaderTS.URL+"/upsert", `{"id":"c","coord":{"vec":[3,0,0]}}`)
	waitConverged(t, f, leader)

	seq, epoch, n := f.ChangeSeq(), f.ChangeEpoch(), f.Len()
	published := f.ChangeStreamStats().Published
	cur := f.FollowChanges()
	defer cur.Close()
	untouched := func(after string) {
		t.Helper()
		if f.ChangeSeq() != seq || f.Len() != n || f.ChangeStreamStats().Published != published {
			t.Fatalf("after %s: seq %d len %d published %d, want %d %d %d untouched",
				after, f.ChangeSeq(), f.Len(), f.ChangeStreamStats().Published, seq, n, published)
		}
		if _, ok := f.Get("x"); ok {
			t.Fatalf("after %s: the refused write is stored", after)
		}
		if _, ok := f.Get("a"); !ok {
			t.Fatalf("after %s: the refused remove took effect", after)
		}
		if evs, err := f.ChangesSince(seq, 0); err != nil || len(evs) != 0 {
			t.Fatalf("after %s: the stream grew: %v, %v", after, evs, err)
		}
		select {
		case <-cur.Wake():
			t.Fatalf("after %s: a stream cursor was woken", after)
		default:
		}
	}

	x := netcoord.Coordinate{Vec: []float64{9, 9, 9}}
	if err := f.Upsert("x", x, 0); !errors.Is(err, netcoord.ErrReadOnlyReplica) {
		t.Fatalf("Upsert on a replica = %v, want ErrReadOnlyReplica", err)
	}
	untouched("Upsert")
	if err := f.Registry.Upsert("x", x, 0); !errors.Is(err, netcoord.ErrReadOnlyReplica) {
		t.Fatalf("Registry.Upsert on a replica = %v, want ErrReadOnlyReplica", err)
	}
	untouched("Registry.Upsert")
	if err := f.UpsertBatch([]netcoord.RegistryEntry{{ID: "x", Coord: x}, {ID: "a", Coord: x}}); !errors.Is(err, netcoord.ErrReadOnlyReplica) {
		t.Fatalf("UpsertBatch on a replica = %v, want ErrReadOnlyReplica", err)
	}
	untouched("UpsertBatch")
	if f.Remove("a") {
		t.Fatal("Remove on a replica reported true")
	}
	untouched("Remove")
	if got := f.EvictStale(); got != 0 {
		t.Fatalf("EvictStale on a replica evicted %d", got)
	}
	untouched("EvictStale")
	updates := make(chan netcoord.NodeUpdate, 1)
	stop := f.Feed("x", updates)
	updates <- netcoord.NodeUpdate{Coord: x}
	for deadline := time.Now().Add(5 * time.Second); f.Stats().FeedErrors == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Feed on a replica never counted its refused update")
		}
	}
	stop()
	untouched("Feed")

	got, err := f.Promote()
	if err != nil || got != epoch+1 {
		t.Fatalf("Promote = %d, %v; want epoch %d", got, err, epoch+1)
	}
	if err := f.Upsert("x", x, 0); err != nil {
		t.Fatalf("Upsert after Promote: %v", err)
	}
	if e, ok := f.Get("x"); !ok || e.Seq != seq+1 {
		t.Fatalf("first local write stored as %+v (present %v), want seq %d", e, ok, seq+1)
	}
	evs, err := f.ChangesSince(seq, 0)
	if err != nil || len(evs) != 1 || evs[0].Seq != seq+1 || evs[0].Epoch != epoch+1 || evs[0].Entry.ID != "x" {
		t.Fatalf("stream after the first local write: %+v, %v; want one upsert of x at seq %d epoch %d", evs, err, seq+1, epoch+1)
	}
	if !f.Remove("a") || f.ChangeSeq() != seq+2 {
		t.Fatalf("Remove after Promote: seq %d, want %d", f.ChangeSeq(), seq+2)
	}
}

// TestFollowerLongPollWakesOnReBootstrap: a /changes long-poll parked
// on a follower is woken when the follower re-bootstraps underneath it
// — by a delta and by a full transfer — instead of running out its
// wait: the rewrite restarts the stream under the watch hub's cursor,
// and the hub's resync wakes pollers. The poller's resume point is gone
// with the old ring, so it is told to re-bootstrap too (410).
func TestFollowerLongPollWakesOnReBootstrap(t *testing.T) {
	leaderTS, leader := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 8})
	postJSON(t, leaderTS.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}}]}`)
	link := proxyFor(t, leaderTS.URL, faultproxy.Options{})
	f := startTestFollower(t, link.URL())
	waitConverged(t, f, leader)
	fts := newFollowerService(t, f)

	for _, tc := range []struct {
		kind  string
		storm func()
	}{{"delta", func() {
		// Pure upserts far past the leader's ring of 8: the tombstone
		// ring still proves removals, so the repair is a delta.
		for i := 0; i < 200; i++ {
			if err := leader.Upsert(fmt.Sprintf("s%02d", i%50), netcoord.Coordinate{Vec: []float64{float64(i), 5, 0}}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}}, {"full", func() {
		// More removals than the leader's 1024-slot tombstone ring
		// remembers: only a full snapshot is safe.
		for i := 0; i < 1100; i++ {
			id := fmt.Sprintf("gone%04d", i)
			if err := leader.Upsert(id, netcoord.Coordinate{Vec: []float64{float64(i % 89), 7, 0}}, 0); err != nil {
				t.Fatal(err)
			}
			leader.Remove(id)
		}
	}}} {
		t.Run(tc.kind, func(t *testing.T) {
			before := f.FollowerStats()
			since := f.ChangeSeq()
			done := make(chan int, 1)
			go func() {
				resp, err := http.Get(fmt.Sprintf("%s/changes?since=%d&wait=30s", fts.URL, since))
				if err != nil {
					t.Error(err)
					done <- 0
					return
				}
				_ = resp.Body.Close() // only the status is read
				done <- resp.StatusCode
			}()
			time.Sleep(100 * time.Millisecond) // let the long-poll park

			// Cut the link while the leader storms, so the follower sees
			// none of it as events: what wakes the poller is the rewrite.
			link.SetPartitioned(true)
			tc.storm()
			link.SetPartitioned(false)

			select {
			case code := <-done:
				if code != http.StatusGone {
					t.Fatalf("long-poll woken by a %s re-bootstrap answered %d, want 410 (its resume point went with the old ring)", tc.kind, code)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("long-poll slept through a %s re-bootstrap (follower %+v)", tc.kind, f.FollowerStats())
			}
			waitConverged(t, f, leader)
			assertReplicaIdentical(t, f, leader)
			after := f.FollowerStats()
			if after.Bootstraps == before.Bootstraps {
				t.Fatalf("no re-bootstrap happened (storm premise broken): %+v", after)
			}
			if gotDelta := after.DeltaBootstraps > before.DeltaBootstraps; gotDelta != (tc.kind == "delta") {
				t.Fatalf("wanted a %s re-bootstrap: before %+v, after %+v", tc.kind, before, after)
			}
		})
	}
}
