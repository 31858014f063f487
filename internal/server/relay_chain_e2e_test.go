package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestRelayChainE2E runs a persistent leader → follower → follower →
// leaf chain and drives a heartbeat storm of repeated ids through it
// while every relay is tailing. Every tier must converge bit-identically
// with the leader and serve byte-identical /changes JSON. The
// encode-once claim is a test here: the binary /changes body for a
// sequence range is byte-identical at every tier — each frame was
// encoded once, at the leader's publish, and every hop below forwarded
// those bytes — and identical again when the leader is restarted and
// serves the same range from its WAL instead of its ring.
func TestRelayChainE2E(t *testing.T) {
	dir := t.TempDir()
	openLeader := func() (*netcoord.PersistentRegistry, *httptest.Server, func()) {
		pr, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{Dir: dir, SnapshotInterval: -1, NoSync: true})
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

	// Restart the leader: its ring is empty, so the same range now
	// comes off the disk — the same bytes.
	stopLeader()
	stopped = true
	leader, leaderTS, stopLeader = openLeader()
	defer stopLeader()
	if got := leader.ChangeSeq(); got != until {
		t.Fatalf("restarted leader at seq %d, want %d", got, until)
	}
	if st := leader.ChangeStreamStats(); st.RingLen != 0 {
		t.Fatalf("restarted leader's ring holds %d events; the range must come from the WAL", st.RingLen)
	}
	if body := framesBody(t, leaderTS.URL, since, 64); !bytes.Equal(body, wantFrames) {
		t.Fatalf("restarted leader serves different frame bytes from its WAL for (%d, %d]:\nring %x\nWAL  %x", since, until, wantFrames, body)
	}
}
