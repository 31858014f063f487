package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"netcoord"
)

func TestSnapshotAndChangesEndpoints(t *testing.T) {
	ts := newTestService(t)

	code, out := postJSON(t, ts.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[0,0,0]}},
		{"id":"b","coord":{"vec":[30,0,0]}}]}`)
	if code != http.StatusOK {
		t.Fatalf("upsert: %d %v", code, out)
	}
	seqAfterUpsert, ok := out["seq"].(float64)
	if !ok || seqAfterUpsert != 2 {
		t.Fatalf("upsert response seq = %v, want 2", out["seq"])
	}

	// /snapshot returns the bootstrap pair.
	code, out = getJSON(t, ts.URL+"/snapshot")
	if code != http.StatusOK || out["seq"].(float64) != 2 {
		t.Fatalf("snapshot: %d %v", code, out)
	}
	if entries := out["entries"].([]any); len(entries) != 2 {
		t.Fatalf("snapshot entries = %v", out["entries"])
	}

	// Tail from the beginning.
	code, out = getJSON(t, ts.URL+"/changes?since=0")
	if code != http.StatusOK {
		t.Fatalf("changes: %d %v", code, out)
	}
	events := out["events"].([]any)
	if len(events) != 2 {
		t.Fatalf("changes since 0: %d events, want 2", len(events))
	}
	first := events[0].(map[string]any)
	if first["seq"].(float64) != 1 || first["op"].(string) != "upsert" {
		t.Fatalf("first event = %v", first)
	}

	// The seq from the mutation response resumes with no overlap: only
	// mutations after it appear.
	code, out = postJSON(t, ts.URL+"/remove", `{"id":"b"}`)
	if code != http.StatusOK || out["seq"].(float64) != 3 {
		t.Fatalf("remove: %d %v", code, out)
	}
	code, out = getJSON(t, ts.URL+fmt.Sprintf("/changes?since=%d", int(seqAfterUpsert)))
	if code != http.StatusOK {
		t.Fatalf("changes resume: %d %v", code, out)
	}
	events = out["events"].([]any)
	if len(events) != 1 || events[0].(map[string]any)["op"].(string) != "remove" {
		t.Fatalf("resumed events = %v, want just the remove", events)
	}

	// /stats carries the same sequence.
	code, out = getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK || out["seq"].(float64) != 3 {
		t.Fatalf("stats seq: %d %v", code, out["seq"])
	}
	cs, ok := out["change_stream"].(map[string]any)
	if _, stale := cs["enabled"]; !ok || stale || cs["seq"].(float64) != 3 {
		t.Fatalf("stats change_stream = %v", out["change_stream"])
	}

	// Parameter validation.
	if code, _ := getJSON(t, ts.URL+"/changes"); code != http.StatusBadRequest {
		t.Fatalf("missing since: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/changes?since=x"); code != http.StatusBadRequest {
		t.Fatalf("bad since: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/changes?since=0&limit=1000000"); code != http.StatusBadRequest {
		t.Fatalf("huge limit: %d, want 400", code)
	}
}

func TestChangesLongPollReturnsOnEvent(t *testing.T) {
	ts := newTestService(t)
	seedOne(t, ts)

	type result struct {
		code int
		out  map[string]any
	}
	done := make(chan result, 1)
	go func() {
		code, out := getJSON(t, ts.URL+"/changes?since=1&wait=30s")
		done <- result{code, out}
	}()
	// Give the long-poll a moment to park, then mutate.
	time.Sleep(50 * time.Millisecond)
	postJSON(t, ts.URL+"/upsert", `{"id":"wake","coord":{"vec":[5,0,0]}}`)

	select {
	case r := <-done:
		if r.code != http.StatusOK {
			t.Fatalf("long-poll: %d %v", r.code, r.out)
		}
		events := r.out["events"].([]any)
		if len(events) != 1 || events[0].(map[string]any)["entry"].(map[string]any)["id"] != "wake" {
			t.Fatalf("long-poll events = %v", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned after a mutation")
	}
}

func TestChangesTruncationIs410(t *testing.T) {
	// A non-persistent leader retains only the ring; resuming from
	// before it must be a 410 so clients re-bootstrap.
	ts, _ := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 4})
	for i := 0; i < 20; i++ {
		postJSON(t, ts.URL+"/upsert", fmt.Sprintf(`{"id":"n%d","coord":{"vec":[%d,0,0]}}`, i, i))
	}
	code, out := getJSON(t, ts.URL+"/changes?since=0")
	if code != http.StatusGone {
		t.Fatalf("pre-ring resume: %d %v, want 410", code, out)
	}
	if code, _ := getJSON(t, ts.URL+"/changes?since=19"); code != http.StatusOK {
		t.Fatalf("in-ring resume: %d, want 200", code)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data map[string]any
}

// sseLine is one raw line (or terminal error) from the stream.
type sseLine struct {
	line string
	err  error
}

// sseReader incrementally parses an SSE stream. One goroutine owns the
// underlying reader for the stream's whole life; next only consumes
// parsed lines.
type sseReader struct {
	t     *testing.T
	lines chan sseLine
}

func newSSEReader(t *testing.T, br *bufio.Reader) *sseReader {
	r := &sseReader{t: t, lines: make(chan sseLine, 64)}
	go func() {
		for {
			line, err := br.ReadString('\n')
			r.lines <- sseLine{line, err}
			if err != nil {
				return
			}
		}
	}()
	return r
}

func (r *sseReader) next(timeout time.Duration) (sseEvent, bool) {
	r.t.Helper()
	ev := sseEvent{}
	deadline := time.After(timeout)
	for {
		select {
		case le := <-r.lines:
			if le.err != nil {
				return ev, false
			}
			line := strings.TrimRight(le.line, "\n")
			switch {
			case strings.HasPrefix(line, ":"): // keepalive comment
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
					r.t.Fatalf("bad SSE data %q: %v", line, err)
				}
			case line == "":
				if ev.name != "" {
					return ev, true
				}
			}
		case <-deadline:
			return ev, false
		}
	}
}

func watchIDs(t *testing.T, ev sseEvent) []string {
	t.Helper()
	raw, ok := ev.data["results"].([]any)
	if !ok {
		t.Fatalf("no results in %v", ev.data)
	}
	ids := make([]string, len(raw))
	for i, r := range raw {
		ids[i] = r.(map[string]any)["id"].(string)
	}
	return ids
}

func TestWatchStreamsNearestSetDeltas(t *testing.T) {
	ts := newTestService(t)
	postJSON(t, ts.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}},
		{"id":"c","coord":{"vec":[50,0,0]}}]}`)

	resp, err := http.Get(ts.URL + "/watch?vec=0,0,0&k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type = %q", ct)
	}
	r := newSSEReader(t, bufio.NewReader(resp.Body))

	// Initial snapshot: the current top-2.
	ev, ok := r.next(5 * time.Second)
	if !ok || ev.name != "snapshot" {
		t.Fatalf("first event = %+v, ok=%v; want snapshot", ev, ok)
	}
	if ids := watchIDs(t, ev); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("snapshot ids = %v, want [a b]", ids)
	}

	// An upsert far outside the top-2 must produce no delta; the next
	// delta received must be the one caused by a genuine change. The
	// server recomputes only on plausible events and pushes only real
	// changes, so event #1 here is the [e a] set.
	postJSON(t, ts.URL+"/upsert", `{"id":"d","coord":{"vec":[100,0,0]}}`)
	postJSON(t, ts.URL+"/upsert", `{"id":"e","coord":{"vec":[0.5,0,0]}}`)
	ev, ok = r.next(5 * time.Second)
	if !ok || ev.name != "delta" {
		t.Fatalf("event after upserts = %+v, ok=%v; want delta", ev, ok)
	}
	if ids := watchIDs(t, ev); len(ids) != 2 || ids[0] != "e" || ids[1] != "a" {
		t.Fatalf("delta ids = %v, want [e a] (far upsert must not have produced a delta)", ids)
	}
	added, _ := ev.data["added"].([]any)
	if len(added) != 1 || added[0].(string) != "e" {
		t.Fatalf("delta added = %v, want [e]", ev.data["added"])
	}

	// Removing a member produces the next delta; b re-enters.
	postJSON(t, ts.URL+"/remove", `{"id":"e"}`)
	ev, ok = r.next(5 * time.Second)
	if !ok || ev.name != "delta" {
		t.Fatalf("event after remove = %+v, ok=%v; want delta", ev, ok)
	}
	if ids := watchIDs(t, ev); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("delta after remove = %v, want [a b]", ids)
	}
	removed, _ := ev.data["removed"].([]any)
	if len(removed) != 1 || removed[0].(string) != "e" {
		t.Fatalf("delta removed = %v, want [e]", ev.data["removed"])
	}

	// A refresh of an existing coordinate (the overwhelmingly common
	// heartbeat case) changes nothing and must stay silent: drive a
	// control change after it and assert the next delta is the
	// control's.
	postJSON(t, ts.URL+"/upsert", `{"id":"a","coord":{"vec":[1,0,0]}}`)
	postJSON(t, ts.URL+"/remove", `{"id":"b"}`)
	ev, ok = r.next(5 * time.Second)
	if !ok || ev.name != "delta" {
		t.Fatalf("control event = %+v, ok=%v", ev, ok)
	}
	if ids := watchIDs(t, ev); len(ids) != 2 || ids[0] != "a" || ids[1] != "c" {
		t.Fatalf("control delta = %v, want [a c] (heartbeat refresh must not delta)", ids)
	}
}

func TestWatchByIDExcludesSelfAndFollowsMoves(t *testing.T) {
	ts := newTestService(t)
	postJSON(t, ts.URL+"/upsert", `{"entries":[
		{"id":"n1","coord":{"vec":[0,0,0]}},
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}},
		{"id":"far","coord":{"vec":[100,0,0]}}]}`)

	resp, err := http.Get(ts.URL + "/watch?id=n1&k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := newSSEReader(t, bufio.NewReader(resp.Body))

	// Same semantics as /nearest?id=n1: n1 is not its own neighbor.
	ev, ok := r.next(5 * time.Second)
	if !ok || ev.name != "snapshot" {
		t.Fatalf("first event = %+v, ok=%v", ev, ok)
	}
	if ids := watchIDs(t, ev); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("snapshot ids = %v, want [a b] (self must be excluded)", ids)
	}

	// Heartbeat refresh of the watched node itself: no delta. Then the
	// node MOVES — its neighborhood is recomputed from the new
	// coordinate, so "far" becomes its nearest.
	postJSON(t, ts.URL+"/upsert", `{"id":"n1","coord":{"vec":[0,0,0]}}`)
	postJSON(t, ts.URL+"/upsert", `{"id":"n1","coord":{"vec":[99,0,0]}}`)
	ev, ok = r.next(5 * time.Second)
	if !ok || ev.name != "delta" {
		t.Fatalf("event after move = %+v, ok=%v", ev, ok)
	}
	if ids := watchIDs(t, ev); len(ids) != 2 || ids[0] != "far" {
		t.Fatalf("delta after move = %v, want [far ...] (watch must follow the node)", ids)
	}

	// Removing the watched node ends the stream.
	postJSON(t, ts.URL+"/remove", `{"id":"n1"}`)
	if ev, ok := r.next(5 * time.Second); ok {
		t.Fatalf("stream still alive after watched node removed: %+v", ev)
	}
}

func TestFollowerOfFollowerChains(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	for i := 0; i < 10; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"n%02d","coord":{"vec":[%d,0,0]},"error":0.1}`, i, i))
	}
	mid := startTestFollower(t, leaderTS.URL)
	waitConverged(t, mid, leaderReg)
	midTS := newFollowerService(t, mid)

	// The middle tier's /snapshot names its upstream (informational)...
	code, out := getJSON(t, midTS.URL+"/snapshot")
	if code != http.StatusOK || out["follower_of"].(string) != leaderTS.URL {
		t.Fatalf("mid snapshot = %d %v, want follower_of=%s", code, out, leaderTS.URL)
	}
	// ...and a second-tier follower bootstraps from it and tails its
	// relayed /changes — events arrive with the LEADER's sequences.
	leaf := startTestFollower(t, midTS.URL)
	waitConverged(t, leaf, leaderReg)
	assertReplicaIdentical(t, leaf, leaderReg)

	// Mutations keep flowing leader → mid → leaf.
	for i := 0; i < 10; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"m%02d","coord":{"vec":[0,%d,0]}}`, i, i))
	}
	postJSON(t, leaderTS.URL+"/remove", `{"id":"n00"}`)
	waitConverged(t, mid, leaderReg)
	waitConverged(t, leaf, leaderReg)
	assertReplicaIdentical(t, leaf, leaderReg)
	if st := leaf.FollowerStats(); st.AppliedSeq != leaderReg.ChangeSeq() {
		t.Fatalf("leaf applied seq %d, leader at %d: tiers drifted out of one sequence space", st.AppliedSeq, leaderReg.ChangeSeq())
	}
}

func TestWatchParameterValidation(t *testing.T) {
	ts := newTestService(t)
	seedOne(t, ts)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/watch", http.StatusBadRequest},
		{"/watch?vec=1,2", http.StatusBadRequest}, // wrong dimension
		{"/watch?vec=a,b,c", http.StatusBadRequest},
		{"/watch?id=ghost", http.StatusNotFound},
		{"/watch?vec=1,2,3&k=0", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// startTestFollower follows a leader URL with test-friendly timings.
func startTestFollower(t *testing.T, leaderURL string) *netcoord.FollowerRegistry {
	t.Helper()
	f, err := netcoord.StartFollower(netcoord.FollowerConfig{
		Upstreams:   []string{leaderURL},
		WaitTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// waitConverged polls until the follower has applied everything the
// leader has sequenced.
func waitConverged(t *testing.T, f *netcoord.FollowerRegistry, leader *netcoord.Registry) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f.AppliedSeq() == leader.ChangeSeq() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, leader at %d (stats %+v)",
				f.AppliedSeq(), leader.ChangeSeq(), f.FollowerStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertReplicaIdentical compares a follower's contents to the
// leader's, field for field: ids, coordinates, error weights, UpdatedAt
// and the per-entry sequence.
func assertReplicaIdentical(t *testing.T, f *netcoord.FollowerRegistry, leader *netcoord.Registry) {
	t.Helper()
	ls, fs := leader.Snapshot(), f.Snapshot()
	if len(ls) != len(fs) {
		t.Fatalf("follower has %d entries, leader %d", len(fs), len(ls))
	}
	for i := range ls {
		l, g := ls[i], fs[i]
		if g.ID != l.ID || !g.Coord.Equal(l.Coord) || g.Error != l.Error || g.Seq != l.Seq {
			t.Fatalf("entry %d: follower %+v, leader %+v", i, g, l)
		}
		if g.UpdatedAt.UnixNano() != l.UpdatedAt.UnixNano() {
			t.Fatalf("entry %s: UpdatedAt %v vs leader %v", g.ID, g.UpdatedAt, l.UpdatedAt)
		}
	}
}

func TestFollowerReplicatesLiveLeader(t *testing.T) {
	ts, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	for i := 0; i < 50; i++ {
		postJSON(t, ts.URL+"/upsert", fmt.Sprintf(`{"id":"n%02d","coord":{"vec":[%d,0,0]},"error":0.25}`, i, i))
	}

	f := startTestFollower(t, ts.URL)
	if f.Len() != 50 {
		t.Fatalf("bootstrap loaded %d entries, want 50", f.Len())
	}
	waitConverged(t, f, leaderReg)
	assertReplicaIdentical(t, f, leaderReg)

	// Keep mutating the live leader; the follower tails to identity.
	for i := 0; i < 30; i++ {
		postJSON(t, ts.URL+"/upsert", fmt.Sprintf(`{"id":"m%02d","coord":{"vec":[0,%d,0]}}`, i, i))
	}
	postJSON(t, ts.URL+"/remove", `{"id":"n00"}`)
	postJSON(t, ts.URL+"/remove", `{"id":"n01"}`)
	waitConverged(t, f, leaderReg)
	assertReplicaIdentical(t, f, leaderReg)

	// Read path answers match the leader's exactly.
	lNear, err := leaderReg.Nearest(netcoord.Coordinate{Vec: []float64{1, 1, 0}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	fNear, err := f.Nearest(netcoord.Coordinate{Vec: []float64{1, 1, 0}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lNear) != len(fNear) {
		t.Fatalf("nearest lengths differ: %d vs %d", len(lNear), len(fNear))
	}
	for i := range lNear {
		if lNear[i].ID != fNear[i].ID || lNear[i].EstimatedRTT != fNear[i].EstimatedRTT {
			t.Fatalf("nearest[%d]: leader %+v, follower %+v", i, lNear[i], fNear[i])
		}
	}
	st := f.FollowerStats()
	if st.Lag != 0 || st.Bootstraps != 1 {
		t.Fatalf("follower stats after convergence: %+v", st)
	}
}

func TestFollowerReBootstrapsAfterTruncation(t *testing.T) {
	// History is the ring, so a leader with a tiny ring forgets it
	// fast; a follower that missed it must get a 410 and re-bootstrap,
	// and still converge to identical contents.
	ts, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 8})
	for i := 0; i < 10; i++ {
		postJSON(t, ts.URL+"/upsert", fmt.Sprintf(`{"id":"n%02d","coord":{"vec":[%d,0,0]}}`, i, i))
	}
	f := startTestFollower(t, ts.URL)
	waitConverged(t, f, leaderReg)

	// Burst far past the ring faster than any poll cadence can follow:
	// in-process mutations outrun the per-poll HTTP round-trip, so the
	// follower is guaranteed to find its resume point compacted away.
	for i := 0; i < 10_000; i++ {
		if err := leaderReg.Upsert(fmt.Sprintf("burst%04d", i%500), netcoord.Coordinate{Vec: []float64{0, float64(i % 97), 0}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !leaderReg.Remove("n03") {
		t.Fatal("remove n03 failed")
	}
	waitConverged(t, f, leaderReg)
	assertReplicaIdentical(t, f, leaderReg)
	if st := f.FollowerStats(); st.Bootstraps < 2 {
		t.Fatalf("expected a re-bootstrap after truncation, stats %+v", st)
	}
}

// TestReplicaStampAllocs holds the staleness stamp on a replica read to
// three allocations: the age's string, formatted into a stack buffer,
// and one value slice per header (a lag under 100 formats without one).
// The header keys are written in canonical form, so Header().Set does
// not rebuild them; spelled X-NC-…, each would cost one more.
func TestReplicaStampAllocs(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	postJSON(t, leaderTS.URL+"/upsert", `{"id":"a","coord":{"vec":[1,0,0]}}`)
	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leaderReg)
	srv := New(Config{Registry: f.Registry, Follower: f})
	t.Cleanup(srv.Stop)

	stamped := srv.staleness(func(http.ResponseWriter, *http.Request) {})
	req, err := http.NewRequest(http.MethodGet, "/nearest", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		clear(w.h)
		stamped(w, req)
	})
	if w.h.Get("X-NC-Staleness") == "" || w.h.Get("X-NC-Lag") == "" {
		t.Fatalf("replica read not stamped: %v", w.h)
	}
	if allocs > 3 {
		t.Fatalf("stamp made %.0f allocations, want 3", allocs)
	}
}

func TestFollowerModeHTTPSurface(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	postJSON(t, leaderTS.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}}]}`)

	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leaderReg)
	fts := newFollowerService(t, f)

	// Reads work and see the replicated state.
	code, out := getJSON(t, fts.URL+"/nearest?id=a&k=1")
	if code != http.StatusOK || resultIDs(t, out)[0] != "b" {
		t.Fatalf("follower nearest: %d %v", code, out)
	}
	if code, _ := getJSON(t, fts.URL+"/estimate?a=a&b=b"); code != http.StatusOK {
		t.Fatalf("follower estimate: %d", code)
	}

	// Mutations are refused; the error names the leader.
	code, out = postJSON(t, fts.URL+"/upsert", `{"id":"x","coord":{"vec":[9,9,9]}}`)
	if code != http.StatusForbidden || !strings.Contains(out["error"].(string), leaderTS.URL) {
		t.Fatalf("follower upsert: %d %v, want 403 naming the leader", code, out)
	}
	if code, _ = postJSON(t, fts.URL+"/remove", `{"id":"a"}`); code != http.StatusForbidden {
		t.Fatalf("follower remove: %d, want 403", code)
	}

	// The stream is re-served in the leader's sequence space. History
	// before the follower's bootstrap point is genuinely gone here — a
	// resume below the replica's ring is a 410 (re-bootstrap from this
	// follower's /snapshot), the same protocol the leader speaks.
	if code, _ = getJSON(t, fts.URL+"/changes?since=0"); code != http.StatusGone {
		t.Fatalf("follower changes below bootstrap point: %d, want 410", code)
	}
	bootSeq := leaderReg.ChangeSeq()
	postJSON(t, leaderTS.URL+"/upsert", `{"id":"c","coord":{"vec":[3,0,0]}}`)
	waitConverged(t, f, leaderReg)
	code, out = getJSON(t, fts.URL+fmt.Sprintf("/changes?since=%d", bootSeq))
	if code != http.StatusOK {
		t.Fatalf("follower changes: %d %v, want 200 (replicas relay the stream)", code, out)
	}
	evs := out["events"].([]any)
	if len(evs) != 1 || evs[0].(map[string]any)["seq"].(float64) != float64(bootSeq+1) {
		t.Fatalf("follower relayed events = %v, want the leader's upsert at seq %d", evs, bootSeq+1)
	}
	code, out = getJSON(t, fts.URL+"/snapshot")
	if code != http.StatusOK || out["seq"].(float64) != float64(leaderReg.ChangeSeq()) {
		t.Fatalf("follower snapshot: %d %v", code, out)
	}

	// Stats report replication position.
	code, out = getJSON(t, fts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("follower stats: %d", code)
	}
	fst, ok := out["follower"].(map[string]any)
	if !ok || fst["applied_seq"].(float64) != float64(leaderReg.ChangeSeq()) || fst["lag"].(float64) != 0 {
		t.Fatalf("follower stats = %v", out["follower"])
	}
	if code, out = getJSON(t, fts.URL+"/healthz"); code != http.StatusOK || out["role"] != "follower" {
		t.Fatalf("follower healthz: %d %v, want 200 role follower", code, out)
	}

	// A replica read is stamped with what Staleness reports: the age of
	// the last upstream contact, and no lag with the leader idle.
	read, err := http.Get(fts.URL + "/nearest?id=a&k=1")
	if err != nil {
		t.Fatal(err)
	}
	_ = read.Body.Close()
	stamped, perr := strconv.ParseFloat(read.Header.Get("X-NC-Staleness"), 64)
	if age, lag := f.Staleness(); read.StatusCode != http.StatusOK || perr != nil || stamped < 0 || stamped > age+0.001 ||
		lag != 0 || read.Header.Get("X-NC-Lag") != "0" {
		t.Fatalf("replica read: %d, headers %v; Staleness() = %v s, lag %d", read.StatusCode, read.Header, age, lag)
	}

	// Promoted through the library, not through POST /promote: the
	// server asks the follower, so the whole surface turns leader with
	// it — mutations open under the new epoch, the staleness headers
	// stop, and /healthz reports the new role.
	seq := f.ChangeSeq()
	epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	code, out = postJSON(t, fts.URL+"/upsert", `{"id":"x","coord":{"vec":[9,9,9]}}`)
	if code != http.StatusOK || out["seq"].(float64) != float64(seq+1) {
		t.Fatalf("upsert after library promotion: %d %v, want 200 at seq %d", code, out, seq+1)
	}
	if e, ok := f.Get("x"); !ok || e.Seq != seq+1 || f.ChangeEpoch() != epoch {
		t.Fatalf("promoted write stored as %+v (present %v) under epoch %d, want seq %d epoch %d", e, ok, f.ChangeEpoch(), seq+1, epoch)
	}
	resp, err := http.Get(fts.URL + "/nearest?id=a&k=1")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-NC-Staleness") != "" || resp.Header.Get("X-NC-Lag") != "" {
		t.Fatalf("read after library promotion: %d, headers %v; want 200 without staleness stamps", resp.StatusCode, resp.Header)
	}
	if code, out = getJSON(t, fts.URL+"/healthz"); code != http.StatusOK || out["role"] != "leader" || out["promoted"] != true {
		t.Fatalf("healthz after library promotion: %d %v, want 200 role leader promoted", code, out)
	}
	if code, out = postJSON(t, fts.URL+"/promote", ``); code != http.StatusOK || out["already"] != true {
		t.Fatalf("/promote after library promotion: %d %v, want 200 already", code, out)
	}
}
