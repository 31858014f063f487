package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netcoord"
)

// TestChunkedEvictionIsDistinctEventsEverywhere: a TTL sweep of
// 2×512+17 ids is three events with three consecutive sequences — in
// the leader's ring, at a follower (whose relay serves them on under
// the same numbers), and in the leader's WAL, whose recovery resumes
// the stream after the third and still knows every removal. No tier
// ever sees two records share a sequence.
func TestChunkedEvictionIsDistinctEventsEverywhere(t *testing.T) {
	const n = 2*512 + 17
	dir := t.TempDir()
	var offset atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	cfg := netcoord.PersistentRegistryConfig{
		Dir: dir, SnapshotInterval: -1, NoSync: true,
		Registry: netcoord.RegistryConfig{
			TTL:             time.Hour,
			JanitorInterval: 24 * time.Hour, // sweep manually
			Clock:           func() time.Time { return base.Add(time.Duration(offset.Load())) },
		},
	}
	leader, err := netcoord.OpenPersistentRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			leader.Close()
		}
	}()
	srv := New(Config{Registry: leader.Registry, Persist: leader})
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < n; i++ {
		if err := leader.Upsert(fmt.Sprintf("stale-%04d", i), netcoord.Coordinate{Vec: []float64{float64(i % 31), 1, 0}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	offset.Store(int64(2 * time.Hour))
	if err := leader.Upsert("fresh", netcoord.Coordinate{Vec: []float64{1, 1, 1}}, 0); err != nil {
		t.Fatal(err)
	}
	f := startTestFollower(t, ts.URL)
	waitConverged(t, f, leader.Registry)
	before := leader.ChangeSeq()
	if got := leader.EvictStale(); got != n {
		t.Fatalf("evicted %d, want %d", got, n)
	}
	if got := leader.ChangeSeq(); got != before+3 {
		t.Fatalf("the sweep advanced the stream by %d, want 3 events", got-before)
	}
	waitConverged(t, f, leader.Registry)
	assertReplicaIdentical(t, f, leader.Registry)

	check := func(where string, evs []netcoord.ChangeEvent, err error) {
		t.Helper()
		if err != nil || len(evs) != 3 {
			t.Fatalf("%s: %d events, %v; want 3", where, len(evs), err)
		}
		total := 0
		for i, ev := range evs {
			if ev.Op != netcoord.ChangeEvict || ev.Seq != before+uint64(i)+1 || len(ev.Frame()) == 0 {
				t.Fatalf("%s event %d: op %d seq %d frame %d bytes; want an eviction at seq %d carrying its frame", where, i, ev.Op, ev.Seq, len(ev.Frame()), before+uint64(i)+1)
			}
			total += len(ev.IDs)
		}
		if total != n {
			t.Fatalf("%s: evictions carry %d ids, want %d", where, total, n)
		}
	}
	evs, err := leader.ChangesSince(before, 0)
	check("leader ring", evs, err)
	evs, err = f.ChangesSince(before, 0)
	check("follower relay", evs, err)

	closed = true
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := netcoord.OpenPersistentRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 1 {
		t.Fatalf("reopened registry holds %d entries, want only the fresh one", reopened.Len())
	}
	if got := reopened.ChangeSeq(); got != before+3 {
		t.Fatalf("reopened stream at seq %d, want %d: the WAL holds the sweep as 3 events", got, before+3)
	}
	if d := reopened.SnapshotSince(before); !d.Delta || len(d.Tombstones) != n {
		t.Fatalf("reopened SnapshotSince(%d): %d removals, delta %v; want a delta of %d", before, len(d.Tombstones), d.Delta, n)
	}
}

// jsonOnlyUpstream fronts a live leader the way a server without the
// frame encoding would: whatever the client asks for, it answers JSON.
// While frames is set it passes requests through untouched.
type jsonOnlyUpstream struct {
	leader http.Handler
	frames atomic.Bool
	hits   atomic.Int64
}

func (u *jsonOnlyUpstream) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !u.frames.Load() {
		u.hits.Add(1)
		req = req.Clone(req.Context())
		req.Header.Del("Accept")
		q := req.URL.Query()
		q.Del("format")
		req.URL.RawQuery = q.Encode()
	}
	u.leader.ServeHTTP(w, req)
}

// TestFollowerRefusesJSONUpstream: replication speaks one protocol. An
// upstream that answers /snapshot or /changes with anything but the
// frame media types fails the call with an error naming the content
// type it sent, the follower rotates to the next upstream at once, and
// nothing out of the JSON body is applied.
func TestFollowerRefusesJSONUpstream(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	for i := 0; i < 10; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"n%02d","coord":{"vec":[%d,0,0]}}`, i, i))
	}
	front := &jsonOnlyUpstream{leader: leaderTS.Config.Handler}
	frontTS := httptest.NewServer(front)
	defer frontTS.Close()

	// Bootstrap: a JSON-only upstream alone cannot start a follower...
	_, err := netcoord.StartFollower(netcoord.FollowerConfig{Upstreams: []string{frontTS.URL}})
	if err == nil || !strings.Contains(err.Error(), `"application/json"`) || !strings.Contains(err.Error(), "/snapshot") {
		t.Fatalf("StartFollower against a JSON-only upstream: %v; want an error naming the content type", err)
	}
	// ...and ahead of a real one it is skipped.
	f := startUpstreamsFollower(t, frontTS.URL, leaderTS.URL)
	if st := f.FollowerStats(); st.LeaderURL != leaderTS.URL || front.hits.Load() < 2 {
		t.Fatalf("bootstrap did not fall through to the frame-speaking upstream: %+v (JSON upstream hits %d)", st, front.hits.Load())
	}
	waitConverged(t, f, leaderReg)
	f.Close()

	// Tail: an upstream that speaks frames for the bootstrap and JSON
	// afterwards is rotated away from on the first JSON answer.
	front.frames.Store(true)
	f = startUpstreamsFollower(t, frontTS.URL, leaderTS.URL)
	waitConverged(t, f, leaderReg)
	if st := f.FollowerStats(); st.LeaderURL != frontTS.URL {
		t.Fatalf("follower not tailing the front: %+v", st)
	}
	front.hits.Store(0)
	front.frames.Store(false)
	for i := 0; i < 5; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"late%d","coord":{"vec":[0,%d,0]}}`, i, i))
	}
	waitConverged(t, f, leaderReg)
	assertReplicaIdentical(t, f, leaderReg)
	st := f.FollowerStats()
	if st.Failovers != 1 || st.LeaderURL != leaderTS.URL {
		t.Fatalf("follower did not rotate off the JSON upstream: %+v", st)
	}
	if front.hits.Load() == 0 || !strings.Contains(st.LastError, `"application/json"`) || !strings.Contains(st.LastError, "/changes") {
		t.Fatalf("last error %q (JSON upstream hits %d); want the refused /changes content type", st.LastError, front.hits.Load())
	}
	if st.EventsApplied > st.FramesReceived {
		t.Fatalf("applied %d events out of %d frames: something was applied from a JSON body", st.EventsApplied, st.FramesReceived)
	}
}
