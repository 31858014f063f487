package netcoord

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcoord/internal/wire"
)

// streamUpstream is a scripted upstream for a follower. /snapshot
// answers snapshot(since), since being 0 for a full transfer; the n-th
// /changes request runs changes[n] after the status is sent, and a
// request past the end of the list is held open with nothing written
// until the client leaves — an idle stream.
type streamUpstream struct {
	t        *testing.T
	follower atomic.Pointer[FollowerRegistry]
	snapshot func(since uint64) []byte
	changes  []func(w http.ResponseWriter, req *http.Request)

	mu     sync.Mutex
	sinces []uint64 // ?since= of every /changes request, in order
}

func (u *streamUpstream) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	since, _ := strconv.ParseUint(req.URL.Query().Get("since"), 10, 64)
	switch req.URL.Path {
	case "/snapshot":
		w.Header().Set("Content-Type", wire.ContentTypeSnapshot)
		_, _ = w.Write(u.snapshot(since))
	case "/changes":
		u.mu.Lock()
		n := len(u.sinces)
		u.sinces = append(u.sinces, since)
		u.mu.Unlock()
		if n < len(u.changes) {
			w.Header().Set("Content-Type", wire.ContentTypeFrames)
			w.WriteHeader(http.StatusOK)
			u.changes[n](w, req)
			return
		}
		<-req.Context().Done()
	default:
		u.t.Errorf("unexpected request %s", req.URL)
		w.WriteHeader(http.StatusNotFound)
	}
}

// requests is the ?since= of every /changes request so far.
func (u *streamUpstream) requests() []uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]uint64(nil), u.sinces...)
}

// send writes b on the open stream and flushes it.
func send(w http.ResponseWriter, b []byte) {
	_, _ = w.Write(b)
	w.(http.Flusher).Flush()
}

// waitApplied returns once the follower has applied seq; the scripts
// send their next batch only then, so a batch the follower applied can
// only have been applied on arrival, not at the end of the body.
func (u *streamUpstream) waitApplied(seq uint64) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := u.follower.Load(); f != nil && f.ChangeSeq() >= seq {
			return
		}
		if time.Now().After(deadline) {
			u.t.Errorf("follower never applied seq %d", seq)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// startStreamFollower starts a follower on the upstreams with the
// default 25 s window: a script that relied on a body ending (or on a
// drain of one) would wait it out and miss every deadline below.
func startStreamFollower(t *testing.T, ups ...*streamUpstream) *FollowerRegistry {
	t.Helper()
	urls := make([]string, len(ups))
	for i, u := range ups {
		ts := httptest.NewServer(u)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	f, err := StartFollower(FollowerConfig{Upstreams: urls, WaitTimeout: 25 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for _, u := range ups {
		u.follower.Store(f)
	}
	return f
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// streamLeader is a leader at epoch 1 with three entries, the full
// /snapshot body at that point (seq 3), and the events of the mutations
// after it, seqs 4 and up.
func streamLeader(t *testing.T, mutations int) (*Registry, []byte, []ChangeEvent) {
	t.Helper()
	at := time.Unix(1_700_000_000, 0) // no monotonic reading: entries compare with ==
	leader, err := NewRegistry(RegistryConfig{Clock: func() time.Time { return at }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	cur := leader.FollowChanges() // a served leader has its hub's sink: frames are encoded at publish
	t.Cleanup(cur.Close)
	leader.feed.SetEpoch(1)
	for i := 0; i < 3; i++ {
		if err := leader.Upsert(fmt.Sprintf("n%d", i), c3(float64(i), 0, 0), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshotFramesBody(t, leader, false, 0)
	for i := 0; i < mutations; i++ {
		if i == 2 {
			leader.Remove("n1")
			continue
		}
		if err := leader.Upsert(fmt.Sprintf("n%d", i%5), c3(float64(i), 1, 0), 0.25); err != nil {
			t.Fatal(err)
		}
	}
	evs, err := leader.ChangesSince(3, 0)
	if err != nil || len(evs) != mutations {
		t.Fatalf("leader history: %d events, %v", len(evs), err)
	}
	return leader, snap, evs
}

// assertFollowerIs holds the follower to the leader: same entries, same
// stream position, and every event it applied after seq 3 carrying the
// leader's frame bytes.
func assertFollowerIs(t *testing.T, f *FollowerRegistry, leader *Registry) {
	t.Helper()
	if got, want := f.Snapshot(), leader.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower holds\n %+v\nleader\n %+v", got, want)
	}
	if f.ChangeSeq() != leader.ChangeSeq() || f.ChangeEpoch() != leader.ChangeEpoch() {
		t.Fatalf("follower at seq %d epoch %d, leader at %d epoch %d", f.ChangeSeq(), f.ChangeEpoch(), leader.ChangeSeq(), leader.ChangeEpoch())
	}
}

// TestFollowerStreamAppliesBatchesInOrder: an upstream writes three
// batches on one /changes response, each only after the follower has
// applied the one before. The follower applies every batch as it
// arrives, in order, with the leader's frame bytes, over that one
// request.
func TestFollowerStreamAppliesBatchesInOrder(t *testing.T) {
	leader, snap, evs := streamLeader(t, 6)
	b1, b2, b3 := framesBatch(t, 5, 1, evs[0:2]), framesBatch(t, 8, 1, evs[2:5]), framesBatch(t, 9, 1, evs[5:6])
	up := &streamUpstream{t: t, snapshot: func(uint64) []byte { return snap }}
	up.changes = append(up.changes, func(w http.ResponseWriter, req *http.Request) {
		send(w, b1)
		up.waitApplied(5)
		send(w, b2)
		up.waitApplied(8)
		send(w, b3)
		<-req.Context().Done()
	})
	f := startStreamFollower(t, up)
	waitFor(t, "seq 9", func() bool { return f.ChangeSeq() == 9 })
	assertFollowerIs(t, f, leader)
	got, err := f.ChangesSince(3, 0)
	if err != nil || len(got) != len(evs) {
		t.Fatalf("follower history: %d events, %v", len(got), err)
	}
	for i := range got {
		if got[i].Seq != evs[i].Seq || string(got[i].Frame()) != string(evs[i].Frame()) {
			t.Fatalf("event %d: follower seq %d frame %x, leader seq %d frame %x", i, got[i].Seq, got[i].Frame(), evs[i].Seq, evs[i].Frame())
		}
	}
	if reqs := up.requests(); len(reqs) != 1 || reqs[0] != 3 {
		t.Fatalf("/changes requests since %v, want the one stream from seq 3", reqs)
	}
	if st := f.FollowerStats(); st.EventsApplied != 6 || st.FramesReceived != 6 || st.Errors != 0 || st.LeaderSeq != 9 {
		t.Fatalf("stats %+v, want 6 events applied and received, no errors, leader seq 9", st)
	}
}

// TestFollowerStreamStaleEpochRotates: mid-stream, an upstream sends a
// batch under a fencing epoch older than the follower's — it is serving
// a deposed leader's writes — and then holds the body open. The
// follower refuses that whole batch, leaves the stream at once (it does
// not wait out the window) and resumes on the next upstream from the
// last batch it applied.
func TestFollowerStreamStaleEpochRotates(t *testing.T) {
	leader, snap, evs := streamLeader(t, 4)
	deposed, err := NewRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer deposed.Close()
	cur := deposed.FollowChanges()
	defer cur.Close()
	for i := 0; i < 7; i++ {
		if err := deposed.Upsert(fmt.Sprintf("deposed%d", i), c3(9, 9, float64(i)), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := deposed.ChangesSince(5, 0)
	if err != nil || len(stale) != 2 || stale[0].Epoch != 0 {
		t.Fatalf("deposed history %+v, %v", stale, err)
	}
	first, deposedBatch, rest := framesBatch(t, 5, 1, evs[0:2]), framesBatch(t, 7, 0, stale), framesBatch(t, 7, 1, evs[2:4])
	a := &streamUpstream{t: t, snapshot: func(uint64) []byte { return snap }}
	a.changes = append(a.changes, func(w http.ResponseWriter, req *http.Request) {
		send(w, first)
		a.waitApplied(5)
		send(w, deposedBatch)
		<-req.Context().Done()
	})
	b := &streamUpstream{t: t}
	b.changes = append(b.changes, func(w http.ResponseWriter, req *http.Request) {
		send(w, rest)
		<-req.Context().Done()
	})
	f := startStreamFollower(t, a, b)
	waitFor(t, "seq 7 from the second upstream", func() bool { return f.ChangeSeq() == 7 })
	assertFollowerIs(t, f, leader)
	if reqs := b.requests(); len(reqs) != 1 || reqs[0] != 5 {
		t.Fatalf("second upstream's /changes requests since %v, want one from seq 5", reqs)
	}
	if st := f.FollowerStats(); st.RejectedStaleEpoch != 1 || st.Failovers != 1 || !strings.Contains(st.LastError, "stale fencing epoch") {
		t.Fatalf("stats %+v, want one stale-epoch refusal and one failover", st)
	}
}

// TestFollowerStreamGapReBootstraps: mid-stream, an upstream skips a
// sequence. The follower applies nothing past the gap and re-bootstraps
// with a delta from the last sequence it applied.
func TestFollowerStreamGapReBootstraps(t *testing.T) {
	leader, snap, evs := streamLeader(t, 5)
	delta := snapshotFramesBody(t, leader, true, 5)
	first, gapped := framesBatch(t, 5, 1, evs[0:2]), framesBatch(t, 8, 1, evs[3:5]) // seq 6 missing
	up := &streamUpstream{t: t, snapshot: func(since uint64) []byte {
		if since == 0 {
			return snap
		}
		if since != 5 {
			t.Errorf("delta /snapshot asked since %d, want 5", since)
		}
		return delta
	}}
	up.changes = append(up.changes, func(w http.ResponseWriter, req *http.Request) {
		send(w, first)
		up.waitApplied(5)
		send(w, gapped)
		<-req.Context().Done()
	})
	f := startStreamFollower(t, up)
	waitFor(t, "a re-bootstrap and the stream after it", func() bool { return len(up.requests()) == 2 })
	assertFollowerIs(t, f, leader)
	if reqs := up.requests(); reqs[1] != 8 {
		t.Fatalf("/changes requests since %v, want the second from the re-bootstrap's seq 8", reqs)
	}
	if st := f.FollowerStats(); st.Bootstraps != 2 || st.DeltaBootstraps != 1 || !strings.Contains(st.LastError, "gap: applied 5, next event 7") {
		t.Fatalf("stats %+v, want a delta re-bootstrap after the gap at 5", st)
	}
}

// TestFollowerStreamCutBatchAppliesNothing: an upstream ends its body
// inside a batch, after one of its two frames. That is an error, the
// whole frame it did send is not applied, and the next stream resumes
// from the last whole batch.
func TestFollowerStreamCutBatchAppliesNothing(t *testing.T) {
	leader, snap, evs := streamLeader(t, 4)
	up := &streamUpstream{t: t, snapshot: func(uint64) []byte { return snap }}
	first, whole := framesBatch(t, 5, 1, evs[0:2]), framesBatch(t, 7, 1, evs[2:4])
	cut := whole[:len(whole)-len(evs[3].Frame())/2]
	up.changes = append(up.changes, func(w http.ResponseWriter, req *http.Request) {
		send(w, first)
		up.waitApplied(5)
		send(w, cut)
	}, func(w http.ResponseWriter, req *http.Request) {
		send(w, whole)
		<-req.Context().Done()
	})
	f := startStreamFollower(t, up)
	waitFor(t, "seq 7", func() bool { return f.ChangeSeq() == 7 })
	assertFollowerIs(t, f, leader)
	if reqs := up.requests(); len(reqs) != 2 || reqs[1] != 5 {
		t.Fatalf("/changes requests since %v, want the second from seq 5: nothing of the cut batch applied", reqs)
	}
	if st := f.FollowerStats(); st.Errors != 1 || !strings.Contains(st.LastError, "batch 2: unexpected EOF") {
		t.Fatalf("stats %+v, want one error naming the cut batch", st)
	}
}

// TestFollowerStreamEmptyBodyIsAnError: a frames body carries at least
// one batch — an upstream answers an empty window with an empty batch —
// so a body with none is damage, not a quiet window.
func TestFollowerStreamEmptyBodyIsAnError(t *testing.T) {
	reg, err := newReplicaRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	f := &FollowerRegistry{Registry: reg}
	if err := f.ingest(strings.NewReader("")); err == nil || !strings.Contains(err.Error(), "batch 1: unexpected EOF") {
		t.Fatalf("empty body: %v, want an error naming the missing batch", err)
	}
}
