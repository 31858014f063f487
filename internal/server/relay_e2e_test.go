package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"netcoord"
)

// tailAll follows a /changes endpoint from `since` until it has every
// event through `until`, paginating and long-polling like a real
// consumer. Events are returned re-marshalled through map[string]any,
// which canonicalizes key order — byte equality then means value
// equality.
func tailAll(t *testing.T, base string, since, until uint64) []string {
	t.Helper()
	var out []string
	cur := since
	deadline := time.Now().Add(30 * time.Second)
	for cur < until {
		if time.Now().After(deadline) {
			t.Fatalf("tail of %s stuck at seq %d (want %d)", base, cur, until)
		}
		resp, err := http.Get(fmt.Sprintf("%s/changes?since=%d&wait=2s&limit=64", base, cur))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Events []map[string]any `json:"events"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tail of %s: status %d at seq %d", base, resp.StatusCode, cur)
		}
		if err != nil {
			t.Fatalf("tail decode: %v", err)
		}
		for _, ev := range body.Events {
			data, merr := json.Marshal(ev)
			if merr != nil {
				t.Fatal(merr)
			}
			out = append(out, string(data))
			cur = uint64(ev["seq"].(float64))
		}
	}
	return out
}

// TestFollowerChangesBitIdenticalToLeader tails the leader's and a
// follower's /changes streams concurrently with the mutation load and
// requires them to be event-for-event identical: same sequences, same
// payloads, byte for byte — the property that makes replica tiers
// transparent to stream consumers.
func TestFollowerChangesBitIdenticalToLeader(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	for i := 0; i < 40; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"seed%02d","coord":{"vec":[%d,0,0]},"error":0.1}`, i, i))
	}
	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leaderReg)
	fts := newFollowerService(t, f)
	start := f.AppliedSeq()

	// Concurrent mutation: upserts (some moving, some heartbeats) and
	// removes, all while both tails are in flight.
	const mutations = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			switch {
			case i%10 == 9:
				// Remove the id upserted one step earlier: it provably
				// exists, so every iteration publishes exactly one event
				// and the stream's final sequence is deterministic.
				postJSON(t, leaderTS.URL+"/remove", fmt.Sprintf(`{"id":"seed%02d"}`, (i-1)%40))
			default:
				postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"seed%02d","coord":{"vec":[%d,%d,0]},"error":0.1}`, i%40, i%40, i%7))
			}
		}
	}()

	until := start + mutations
	var leaderEvents, followerEvents []string
	var tails sync.WaitGroup
	tails.Add(2)
	go func() { defer tails.Done(); leaderEvents = tailAll(t, leaderTS.URL, start, until) }()
	go func() { defer tails.Done(); followerEvents = tailAll(t, fts.URL, start, until) }()
	wg.Wait()
	tails.Wait()

	if len(leaderEvents) != len(followerEvents) {
		t.Fatalf("leader served %d events, follower %d", len(leaderEvents), len(followerEvents))
	}
	for i := range leaderEvents {
		if leaderEvents[i] != followerEvents[i] {
			t.Fatalf("event %d diverged:\nleader   %s\nfollower %s", i, leaderEvents[i], followerEvents[i])
		}
	}
	waitConverged(t, f, leaderReg)
	assertReplicaIdentical(t, f, leaderReg)
}

// openWatch opens an SSE watch and returns its reader plus the initial
// snapshot event.
func openWatch(t *testing.T, base, params string) (*sseReader, sseEvent) {
	t.Helper()
	resp, err := http.Get(base + "/watch?" + params)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch on %s: %d", base, resp.StatusCode)
	}
	r := newSSEReader(t, bufio.NewReader(resp.Body))
	ev, ok := r.next(5 * time.Second)
	if !ok || ev.name != "snapshot" {
		t.Fatalf("first watch event on %s = %+v, ok=%v; want snapshot", base, ev, ok)
	}
	return r, ev
}

// waitHubProcessed polls base's /stats until its watch hub has routed
// the stream up to seq.
func waitHubProcessed(t *testing.T, base string, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, st := getJSON(t, base+"/stats")
		hub, _ := st["watch_hub"].(map[string]any)
		processed, _ := hub["processed_seq"].(float64)
		if uint64(processed) == seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s watch hub stuck at seq %v, want %d (stats %v)", base, processed, seq, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerWatchBitIdenticalToLeader drives the same watch on the
// leader and on a follower and requires every pushed event — initial
// snapshot and each delta, sequence numbers included — to be
// identical, because the follower re-serves the watch in the leader's
// sequence space.
func TestFollowerWatchBitIdenticalToLeader(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	postJSON(t, leaderTS.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}},
		{"id":"far","coord":{"vec":[500,0,0]}}]}`)
	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leaderReg)
	fts := newFollowerService(t, f)
	// A watch snapshot is labelled with its hub's position, which lags
	// the registry until the hub goroutine has routed every event: wait
	// for both hubs, or the labels may differ over results that agree.
	waitHubProcessed(t, leaderTS.URL, leaderReg.ChangeSeq())
	waitHubProcessed(t, fts.URL, leaderReg.ChangeSeq())

	lr, lSnap := openWatch(t, leaderTS.URL, "vec=0,0,0&k=2")
	fr, fSnap := openWatch(t, fts.URL, "vec=0,0,0&k=2")
	if !reflect.DeepEqual(lSnap.data, fSnap.data) {
		t.Fatalf("watch snapshots diverged:\nleader   %v\nfollower %v", lSnap.data, fSnap.data)
	}

	// Paced relevant mutations: each changes the top-2, and each tier
	// must push the identical delta (same seq, results, added/removed).
	steps := []string{
		`{"id":"c","coord":{"vec":[0.5,0,0]}}`,   // enters at rank 1
		`{"id":"a","coord":{"vec":[90,0,0]}}`,    // member leaves, b re-enters
		`{"id":"c","coord":{"vec":[3,0,0]}}`,     // reorder
		`{"id":"far","coord":{"vec":[0.1,0,0]}}`, // outsider dives in
	}
	for i, step := range steps {
		// An irrelevant far-away churn event first: neither tier may
		// push anything for it, so the next delta is the step's.
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"noise","coord":{"vec":[800,%d,0]}}`, i))
		postJSON(t, leaderTS.URL+"/upsert", step)
		waitConverged(t, f, leaderReg)
		lev, lok := lr.next(5 * time.Second)
		fev, fok := fr.next(5 * time.Second)
		if !lok || !fok || lev.name != "delta" || fev.name != "delta" {
			t.Fatalf("step %d: leader (%+v, %v), follower (%+v, %v); want deltas", i, lev, lok, fev, fok)
		}
		if !reflect.DeepEqual(lev.data, fev.data) {
			t.Fatalf("step %d deltas diverged:\nleader   %v\nfollower %v", i, lev.data, fev.data)
		}
		if seq := lev.data["seq"].(float64); seq != float64(leaderReg.ChangeSeq()) {
			t.Fatalf("step %d delta seq = %v, want the mutation's seq %d", i, seq, leaderReg.ChangeSeq())
		}
	}
}

// TestFollowerWatchSurvivesReBootstrapMidWatch truncates a follower out
// of its leader's tiny change ring while a watch is attached to the
// follower: the follower must re-bootstrap (as a delta — the storm is
// pure upserts, so the tombstone ring still proves removals) and the
// watch must converge on the post-storm top-k without reconnecting.
func TestFollowerWatchSurvivesReBootstrapMidWatch(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 8})
	postJSON(t, leaderTS.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}},
		{"id":"far","coord":{"vec":[500,0,0]}}]}`)
	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leaderReg)
	fts := newFollowerService(t, f)

	fr, snap := openWatch(t, fts.URL, "vec=0,0,0&k=2")
	if ids := watchIDs(t, sseEvent{name: snap.name, data: snap.data}); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("initial follower watch = %v, want [a b]", ids)
	}

	// Outrun the ring in-process: thousands of upserts between follower
	// polls guarantee a 410. The storm also moves "winner" to rank 1.
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("filler%03d", i%200)
		if err := leaderReg.Upsert(id, netcoord.Coordinate{Vec: []float64{200 + float64(i%97), 100, 0}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := leaderReg.Upsert("winner", netcoord.Coordinate{Vec: []float64{0.25, 0, 0}}, 0); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f, leaderReg)
	st := f.FollowerStats()
	if st.Bootstraps < 2 {
		t.Fatalf("expected a re-bootstrap after truncation, stats %+v", st)
	}
	if st.DeltaBootstraps < 1 {
		t.Fatalf("expected the re-bootstrap to be served as a delta (pure-upsert storm), stats %+v", st)
	}
	assertReplicaIdentical(t, f, leaderReg)

	// The attached watch must reflect the post-storm world: deltas keep
	// flowing (possibly several while the follower resynchronized) and
	// settle on [winner a].
	deadline := time.Now().Add(10 * time.Second)
	for {
		ev, ok := fr.next(time.Until(deadline))
		if !ok {
			t.Fatal("follower watch went silent before converging past the re-bootstrap")
		}
		if ev.name != "delta" {
			continue
		}
		ids := watchIDs(t, ev)
		if len(ids) == 2 && ids[0] == "winner" && ids[1] == "a" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch never converged on [winner a]; last delta %v", ids)
		}
	}
}

// TestDeltaSnapshotHTTP exercises /snapshot?since= directly: a delta
// when the gap is provable, the removed-ids list (each id once), and
// the full-body fallback when the tombstone ring cannot prove coverage.
func TestDeltaSnapshotHTTP(t *testing.T) {
	// A small event ring (64) keeps the tombstone ring at its 1024
	// minimum, so the fallback path is reachable below; it also shows
	// deltas working far below the event ring's floor.
	ts, reg := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 64})
	postJSON(t, ts.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}},
		{"id":"c","coord":{"vec":[3,0,0]}}]}`)
	mark := reg.ChangeSeq()

	postJSON(t, ts.URL+"/upsert", `{"id":"b","coord":{"vec":[20,0,0]}}`)
	postJSON(t, ts.URL+"/remove", `{"id":"c"}`)
	// c comes back and goes again: two tombstones, one removed id.
	postJSON(t, ts.URL+"/upsert", `{"id":"c","coord":{"vec":[30,0,0]}}`)
	postJSON(t, ts.URL+"/remove", `{"id":"c"}`)
	postJSON(t, ts.URL+"/upsert", `{"id":"d","coord":{"vec":[4,0,0]}}`)

	code, out := getJSON(t, ts.URL+fmt.Sprintf("/snapshot?since=%d", mark))
	if code != http.StatusOK || out["delta"] != true {
		t.Fatalf("delta snapshot: %d %v", code, out)
	}
	entries := out["entries"].([]any)
	if len(entries) != 2 {
		t.Fatalf("delta entries = %v, want just b and d", entries)
	}
	ids := map[string]bool{}
	for _, e := range entries {
		ids[e.(map[string]any)["id"].(string)] = true
	}
	if !ids["b"] || !ids["d"] {
		t.Fatalf("delta entries = %v, want b and d", ids)
	}
	removed := out["removed"].([]any)
	if len(removed) != 1 || removed[0].(string) != "c" {
		t.Fatalf("delta removed = %v, want [c]: c was removed twice, listed once", removed)
	}
	if out["seq"].(float64) != float64(reg.ChangeSeq()) {
		t.Fatalf("delta seq = %v, want %d", out["seq"], reg.ChangeSeq())
	}

	// since == current seq: an empty delta, not a full body.
	code, out = getJSON(t, ts.URL+fmt.Sprintf("/snapshot?since=%d", reg.ChangeSeq()))
	if code != http.StatusOK || out["delta"] != true || len(out["entries"].([]any)) != 0 {
		t.Fatalf("empty delta: %d %v", code, out)
	}

	// Overflow the 1024-slot tombstone ring: removal knowledge below
	// the flood is gone, so the same request now degrades to a full
	// snapshot.
	for i := 0; i < 1100; i++ {
		id := fmt.Sprintf("t%04d", i)
		if err := reg.Upsert(id, netcoord.Coordinate{Vec: []float64{float64(i % 89), 5, 0}}, 0); err != nil {
			t.Fatal(err)
		}
		reg.Remove(id)
	}
	code, out = getJSON(t, ts.URL+fmt.Sprintf("/snapshot?since=%d", mark))
	if code != http.StatusOK {
		t.Fatalf("post-overflow snapshot: %d", code)
	}
	if out["delta"] == true {
		t.Fatal("delta served although the tombstone ring lost the range; deleted ids could survive on the replica")
	}
	if n := len(out["entries"].([]any)); n != reg.Len() {
		t.Fatalf("full fallback entries = %d, want the whole registry (%d)", n, reg.Len())
	}
}

// TestChainedDeltaBootstrapDoesNotCascadeFullTransfers truncates both
// tiers of a leader → mid → leaf chain with a pure-upsert storm: mid
// repairs from the leader with a delta, and — because a delta repair
// folds its removal knowledge into the relay instead of wiping it —
// leaf must then repair from MID with a delta too, not a full
// snapshot. Without AdvanceTo this scenario cascades full transfers
// down every tier exactly when deltas matter most.
func TestChainedDeltaBootstrapDoesNotCascadeFullTransfers(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 8})
	for i := 0; i < 10; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"n%02d","coord":{"vec":[%d,0,0]}}`, i, i))
	}
	mid := startTestFollower(t, leaderTS.URL)
	waitConverged(t, mid, leaderReg)
	midTS := newFollowerService(t, mid)
	leaf := startTestFollower(t, midTS.URL)
	waitConverged(t, leaf, leaderReg)

	// Pure-upsert storm far past both rings (leader ring 8; mid's relay
	// forgets its pre-jump range when IT repairs).
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("s%03d", i%150)
		if err := leaderReg.Upsert(id, netcoord.Coordinate{Vec: []float64{float64(i % 83), 50, 0}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, mid, leaderReg)
	waitConverged(t, leaf, leaderReg)
	assertReplicaIdentical(t, leaf, leaderReg)

	if st := mid.FollowerStats(); st.DeltaBootstraps < 1 {
		t.Fatalf("mid tier repaired with a full snapshot, want delta: %+v", st)
	}
	if st := leaf.FollowerStats(); st.Bootstraps < 2 {
		t.Fatalf("leaf never re-bootstrapped (storm premise broken): %+v", st)
	} else if st.DeltaBootstraps < 1 {
		t.Fatalf("leaf repaired with a full snapshot although mid held delta knowledge: %+v", st)
	}
}
