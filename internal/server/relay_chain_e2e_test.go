package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"netcoord"
	"netcoord/internal/wire"
)

// framesBody fetches one /changes page in the binary encoding.
func framesBody(t *testing.T, base string, since uint64, limit int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/changes?format=frames&since=%d&limit=%d", base, since, limit))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentTypeFrames {
		t.Fatalf("%s frames page: status %d, content type %q, err %v", base, resp.StatusCode, resp.Header.Get("Content-Type"), err)
	}
	return body
}

// changesStatus is the status /changes answers for a resume point, in
// the JSON or the frames encoding.
func changesStatus(t *testing.T, base string, since uint64, format string) int {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/changes?since=%d&format=%s", base, since, format))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRelayChainE2E runs a persistent leader → follower → follower →
// leaf chain and drives a heartbeat storm of repeated ids through it
// while every relay is tailing. Every tier must converge bit-identically
// with the leader and serve byte-identical /changes JSON. The
// encode-once claim is a test here: the binary /changes body for a
// sequence range is byte-identical at every tier — each frame was
// encoded once, at the leader's publish, and every hop below forwarded
// those bytes. A restarted leader's ring is empty, and history is the
// ring at every tier: it answers the same range with 410 and the delta
// snapshot that repairs its reader, while the live tiers still serve
// the range's bytes.
func TestRelayChainE2E(t *testing.T) {
	dir := t.TempDir()
	openLeader := func() (*netcoord.PersistentRegistry, *httptest.Server, func()) {
		pr, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{Dir: dir, SnapshotInterval: -1})
		if err != nil {
			t.Fatalf("OpenPersistentRegistry: %v", err)
		}
		srv := New(Config{Registry: pr.Registry, Persist: pr})
		ts := httptest.NewServer(srv)
		return pr, ts, func() {
			ts.Close()
			srv.Stop()
			if err := pr.Close(); err != nil {
				t.Errorf("leader Close: %v", err)
			}
		}
	}
	leader, leaderTS, stopLeader := openLeader()
	stopped := false
	defer func() {
		if !stopped {
			stopLeader()
		}
	}()
	leaderReg := leader.Registry
	const population = 32
	for i := 0; i < population; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"n%03d","coord":{"vec":[%d,0,0]},"error":0.1}`, i, i))
	}

	type tier struct {
		name string
		f    *netcoord.FollowerRegistry
		url  string
	}
	tiers := make([]tier, 0, 3)
	upstream := leaderTS.URL
	for _, name := range []string{"tier 1", "tier 2", "leaf"} {
		f := startTestFollower(t, upstream)
		waitConverged(t, f, leaderReg)
		ts := newFollowerService(t, f)
		tiers = append(tiers, tier{name, f, ts.URL})
		upstream = ts.URL
	}

	// Heartbeat storm: re-upsert the same population in a tight loop.
	// The chain is live throughout, so the relays are ingesting while
	// the storm runs.
	for i := 0; i < 2048; i++ {
		id := fmt.Sprintf("n%03d", i%population)
		if err := leaderReg.Upsert(id, netcoord.Coordinate{Vec: []float64{float64(i % 13), float64(i % 7), 1}}, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	// A few removes so the tailed window carries non-upsert ops too.
	for i := 0; i < 3; i++ {
		leaderReg.Remove(fmt.Sprintf("n%03d", i))
	}

	for _, tr := range tiers {
		waitConverged(t, tr.f, leaderReg)
		assertReplicaIdentical(t, tr.f, leaderReg)
		if st := tr.f.FollowerStats(); st.FramesReceived == 0 || st.FramesReceived < st.EventsApplied {
			t.Fatalf("%s applied %d events out of %d frames", tr.name, st.EventsApplied, st.FramesReceived)
		}
	}

	// Tail the last stretch of the stream (well inside every tier's
	// ring) everywhere, in both renderings.
	until := leaderReg.ChangeSeq()
	since := until - 64
	wantJSON := tailAll(t, leaderTS.URL, since, until)
	wantFrames := framesBody(t, leaderTS.URL, since, 64)
	if hdr, _, err := wire.DecodeBatchHeader(wantFrames); err != nil || hdr.Count != 64 || hdr.Seq != until {
		t.Fatalf("leader frames page header %+v (err %v), want 64 frames at seq %d", hdr, err, until)
	}
	for _, tr := range tiers {
		got := tailAll(t, tr.url, since, until)
		if len(got) != len(wantJSON) {
			t.Fatalf("%s served %d events, leader %d", tr.name, len(got), len(wantJSON))
		}
		for i := range wantJSON {
			if got[i] != wantJSON[i] {
				t.Fatalf("%s event %d diverged:\nleader %s\ntier   %s", tr.name, i, wantJSON[i], got[i])
			}
		}
		if body := framesBody(t, tr.url, since, 64); !bytes.Equal(body, wantFrames) {
			t.Fatalf("%s serves different frame bytes than the leader for (%d, %d]:\nleader %x\ntier   %x", tr.name, since, until, wantFrames, body)
		}
	}

	// Restart the leader: its ring is empty, so the range is below it —
	// a 410 in either encoding, and a delta snapshot that carries the
	// reader across, removals included. The live tiers still hold it.
	stopLeader()
	stopped = true
	leader, leaderTS, stopLeader = openLeader()
	defer stopLeader()
	if got := leader.ChangeSeq(); got != until {
		t.Fatalf("restarted leader at seq %d, want %d", got, until)
	}
	if st := leader.ChangeStreamStats(); st.RingLen != 0 {
		t.Fatalf("restarted leader's ring holds %d events, want none", st.RingLen)
	}
	for _, format := range []string{"json", "frames"} {
		if code := changesStatus(t, leaderTS.URL, since, format); code != http.StatusGone {
			t.Fatalf("restarted leader answers /changes?since=%d&format=%s with %d, want 410", since, format, code)
		}
	}
	code, out := getJSON(t, fmt.Sprintf("%s/snapshot?since=%d", leaderTS.URL, since))
	if code != http.StatusOK || out["delta"] != true || out["seq"].(float64) != float64(until) || len(out["removed"].([]any)) != 3 {
		t.Fatalf("restarted leader /snapshot?since=%d: %d delta=%v seq=%v removed=%v; want a delta to %d with the 3 removals", since, code, out["delta"], out["seq"], out["removed"], until)
	}
	for _, tr := range tiers {
		if body := framesBody(t, tr.url, since, 64); !bytes.Equal(body, wantFrames) {
			t.Fatalf("%s serves different frame bytes after the leader's restart for (%d, %d]", tr.name, since, until)
		}
	}
}

// switchable serves whichever Server is current at one stable URL, so a
// follower's upstream outlives a leader restart; with none current it
// answers 503.
type switchable struct {
	mu  sync.RWMutex
	srv *Server
}

func (s *switchable) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.srv == nil {
		http.Error(w, "leader down", http.StatusServiceUnavailable)
		return
	}
	s.srv.ServeHTTP(w, req)
}

// set makes srv current once every request in flight has finished.
func (s *switchable) set(srv *Server) {
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
}

// TestRestartedLeaderResyncsLaggingFollower pins the one catch-up rule
// at the top of the tree. A follower stops applying while a persistent
// leader takes more writes than its ring holds, and the leader restarts
// on the same directory with an empty ring. It answers the follower's
// resume point with 410, as every tier does below its ring, and the
// follower catches up through exactly one delta bootstrap to a replica
// bit-identical to the leader.
func TestRestartedLeaderResyncsLaggingFollower(t *testing.T) {
	dir := t.TempDir()
	const ring = 16
	open := func() (*netcoord.PersistentRegistry, *Server) {
		pr, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{
			Dir: dir, Registry: netcoord.RegistryConfig{ChangeStreamBuffer: ring}, SnapshotInterval: -1,
		})
		if err != nil {
			t.Fatalf("OpenPersistentRegistry: %v", err)
		}
		return pr, New(Config{Registry: pr.Registry, Persist: pr})
	}
	upsert := func(reg *netcoord.Registry, from, to int) {
		for i := from; i < to; i++ {
			if err := reg.Upsert(fmt.Sprintf("n%02d", i%40), netcoord.Coordinate{Vec: []float64{float64(i), 1, 0}}, 0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	leader, srv := open()
	front := &switchable{srv: srv}
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	upsert(leader.Registry, 0, 40)
	f := startTestFollower(t, ts.URL)
	waitConverged(t, f, leader.Registry)
	before := f.FollowerStats()

	// The follower stops applying: its upstream answers only 503.
	srv.Stop()
	front.set(nil)
	applied := f.AppliedSeq()
	upsert(leader.Registry, 40, 40+8*ring)
	leader.Remove("n07")
	if err := leader.Close(); err != nil {
		t.Fatalf("leader Close: %v", err)
	}
	leader, srv = open()
	defer func() {
		srv.Stop()
		if err := leader.Close(); err != nil {
			t.Errorf("leader Close: %v", err)
		}
	}()
	if st := leader.ChangeStreamStats(); st.RingLen != 0 || st.Seq != applied+8*ring+1 {
		t.Fatalf("restarted leader: ring %d events at seq %d, want none at %d", st.RingLen, st.Seq, applied+8*ring+1)
	}
	front.set(srv)
	if code := changesStatus(t, ts.URL, applied, "frames"); code != http.StatusGone {
		t.Fatalf("restarted leader answers /changes?since=%d with %d, want 410", applied, code)
	}

	waitConverged(t, f, leader.Registry)
	assertReplicaIdentical(t, f, leader.Registry)
	after := f.FollowerStats()
	if after.Bootstraps != before.Bootstraps+1 || after.DeltaBootstraps != before.DeltaBootstraps+1 {
		t.Fatalf("follower bootstraps %d → %d (delta %d → %d), want exactly one more, a delta",
			before.Bootstraps, after.Bootstraps, before.DeltaBootstraps, after.DeltaBootstraps)
	}
}

// TestRestartedRelayRepairsReplicaWithDelta is the same catch-up one
// tier down. Replica B follows relay A, a follower of an in-memory
// leader. A dies, the leader takes 20 upserts and one remove, and a
// fresh A bootstraps in full from the leader. Its full snapshot carries
// the leader's removal knowledge, so the fresh A can prove every
// removal since B's resume point, and B, switched onto it, catches up
// through exactly one delta bootstrap to a replica bit-identical to the
// leader. A relay that set its tombstone floor to its bootstrap
// sequence would force B through a full transfer instead.
func TestRestartedRelayRepairsReplicaWithDelta(t *testing.T) {
	leaderTS, leader := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 16})
	upsert := func(from, to int) {
		for i := from; i < to; i++ {
			if err := leader.Upsert(fmt.Sprintf("n%02d", i%40), netcoord.Coordinate{Vec: []float64{float64(i), 2, 0}}, 0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	relay := func() (*netcoord.FollowerRegistry, *Server) {
		f := startTestFollower(t, leaderTS.URL)
		waitConverged(t, f, leader)
		return f, New(Config{Registry: f.Registry, Follower: f})
	}
	upsert(0, 60)
	leader.Remove("n03")
	a, srv := relay()
	front := &switchable{srv: srv}
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	b := startTestFollower(t, ts.URL)
	waitConverged(t, b, leader)
	before := b.FollowerStats()

	// A dies: B's upstream answers only 503 while the leader moves on.
	srv.Stop()
	front.set(nil)
	a.Close()
	upsert(60, 80)
	leader.Remove("n05")

	a, srv = relay()
	defer srv.Stop()
	if got, want := a.ChangeStreamStats().TombFloor, leader.ChangeStreamStats().TombFloor; got != want {
		t.Fatalf("fresh relay's tombstone floor is %d, the leader's %d: the full bootstrap dropped removal knowledge", got, want)
	}
	front.set(srv)
	waitConverged(t, b, leader)
	assertReplicaIdentical(t, b, leader)
	after := b.FollowerStats()
	if after.Bootstraps != before.Bootstraps+1 || after.DeltaBootstraps != before.DeltaBootstraps+1 {
		t.Fatalf("replica bootstraps %d → %d (delta %d → %d), want exactly one more, a delta",
			before.Bootstraps, after.Bootstraps, before.DeltaBootstraps, after.DeltaBootstraps)
	}
}
