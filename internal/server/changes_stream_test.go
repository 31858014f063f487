package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netcoord"
	"netcoord/internal/wire"
)

// readBatch is one batch read off a /changes frames stream, or the
// error that ended the stream.
type readBatch struct {
	hdr wire.BatchHeader
	evs []netcoord.ChangeEvent
	err error
}

// openFramesStream requests /changes in the frame encoding and reads its
// batches on a goroutine until the body ends; the channel carries each
// batch and then the error that ended the body (io.EOF for a clean end).
func openFramesStream(t *testing.T, url string) <-chan readBatch {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentTypeFrames)
	out := make(chan readBatch, 16)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- readBatch{err: err}
			return
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentTypeFrames {
			out <- readBatch{err: fmt.Errorf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))}
			return
		}
		r := wire.NewReader(resp.Body, 0)
		var slab wire.Slab
		for {
			hdr, evs, err := r.ReadBatch(nil, &slab)
			out <- readBatch{hdr, evs, err}
			if err != nil {
				return
			}
		}
	}()
	return out
}

// nextBatch waits up to within for the stream's next read.
func nextBatch(t *testing.T, batches <-chan readBatch, within time.Duration) readBatch {
	t.Helper()
	select {
	case b := <-batches:
		return b
	case <-time.After(within):
		t.Fatalf("nothing read off the stream within %v", within)
		return readBatch{}
	}
}

// wantBatch checks that a batch carries exactly the registry's events
// after since up to its header's seq, frame for frame.
func wantBatch(t *testing.T, b readBatch, reg *netcoord.Registry, since, seq uint64) {
	t.Helper()
	if b.err != nil {
		t.Fatalf("stream ended (%v), want a batch up to seq %d", b.err, seq)
	}
	want, err := reg.ChangesSince(since, int(seq-since))
	if err != nil {
		t.Fatal(err)
	}
	if b.hdr.Seq != seq || b.hdr.Epoch != reg.ChangeEpoch() || b.hdr.Count != uint64(len(want)) || len(b.evs) != len(want) {
		t.Fatalf("batch %+v with %d events, want seq %d and %d events", b.hdr, len(b.evs), seq, len(want))
	}
	for i := range want {
		if !bytes.Equal(b.evs[i].Frame(), want[i].Frame()) {
			t.Fatalf("event %d: frame %x, want %x", b.evs[i].Seq, b.evs[i].Frame(), want[i].Frame())
		}
	}
}

// upsert writes one entry straight into the leader's registry and
// returns its seq.
func upsert(t *testing.T, reg *netcoord.Registry, id string, x float64) uint64 {
	t.Helper()
	if err := reg.Upsert(id, netcoord.Coordinate{Vec: []float64{x, 0, 0}}, 0.5); err != nil {
		t.Fatal(err)
	}
	return reg.ChangeSeq()
}

// TestChangesFramesStreamCarriesLaterBatches: a frames /changes request
// with a window is one response that carries each newly published range
// as its own batch — two mutations published apart arrive as two
// batches on it — and ends, cleanly at a batch boundary, when the window
// closes.
func TestChangesFramesStreamCarriesLaterBatches(t *testing.T) {
	ts, reg := newTestServiceReg(t, netcoord.RegistryConfig{})
	since := upsert(t, reg, "seed", 0)
	start := time.Now()
	batches := openFramesStream(t, fmt.Sprintf("%s/changes?since=%d&wait=1s", ts.URL, since))
	time.Sleep(50 * time.Millisecond) // let the request park
	first := upsert(t, reg, "a", 1)
	wantBatch(t, nextBatch(t, batches, 5*time.Second), reg, since, first)
	time.Sleep(50 * time.Millisecond)
	second := upsert(t, reg, "b", 2)
	wantBatch(t, nextBatch(t, batches, 5*time.Second), reg, first, second)
	if b := nextBatch(t, batches, 5*time.Second); b.err != io.EOF {
		t.Fatalf("stream went on with %+v (%v), want its end when the window closed", b.hdr, b.err)
	}
	if held := time.Since(start); held < time.Second {
		t.Fatalf("stream ended after %v, before its 1s window", held)
	}
}

// TestChangesFramesWithoutWaitIsOneBatch: with no window, a frames body
// is one batch — a header with the seq/epoch pair and count, then each
// event's frame — exactly as a long-poll answered before responses were
// streams; with events, with a limit, and with none.
func TestChangesFramesWithoutWaitIsOneBatch(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	ts, reg := newTestServiceReg(t, netcoord.RegistryConfig{TTL: time.Hour, Clock: func() time.Time { return now }})
	for i := 0; i < 5; i++ {
		upsert(t, reg, fmt.Sprintf("n%d", i%3), float64(i))
	}
	reg.Remove("n1")
	now = now.Add(2 * time.Hour)
	upsert(t, reg, "fresh", 9)
	if reg.EvictStale() == 0 {
		t.Fatal("nothing evicted")
	}
	seq := reg.ChangeSeq()
	for _, tc := range []struct {
		query string
		since uint64
		limit int // 0: all
	}{{"since=0", 0, 0}, {"since=2&limit=3", 2, 3}, {fmt.Sprintf("since=%d", seq), seq, 0}, {"since=0&wait=0s", 0, 0}} {
		evs, err := reg.ChangesSince(tc.since, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.AppendBatchHeader(nil, wire.BatchHeader{Seq: seq, Epoch: reg.ChangeEpoch(), Count: uint64(len(evs))})
		for i := range evs {
			want = append(want, evs[i].Frame()...)
		}
		resp, err := http.Get(ts.URL + "/changes?format=frames&" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: body\n %x\nwant\n %x", tc.query, got, want)
		}
	}
}

// TestServerStopEndsChangesStream: Stop ends a held-open frames stream —
// one that has sent batches, and one still waiting for its first, which
// answers its empty batch — well inside the window, so an http.Server
// shutting down does not wait on it.
func TestServerStopEndsChangesStream(t *testing.T) {
	for _, started := range []bool{true, false} {
		t.Run(fmt.Sprintf("started=%v", started), func(t *testing.T) {
			reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(reg.Close)
			srv := New(Config{Registry: reg})
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			since := upsert(t, reg, "seed", 0)
			batches := openFramesStream(t, fmt.Sprintf("%s/changes?since=%d&wait=25s", ts.URL, since))
			time.Sleep(50 * time.Millisecond) // let the request park
			if started {
				seq := upsert(t, reg, "a", 1)
				wantBatch(t, nextBatch(t, batches, 5*time.Second), reg, since, seq)
			}
			srv.Stop()
			b := nextBatch(t, batches, time.Second)
			if !started {
				wantBatch(t, b, reg, since, since)
				b = nextBatch(t, batches, time.Second)
			}
			if b.err != io.EOF {
				t.Fatalf("after Stop the stream read %+v (%v), want its end", b.hdr, b.err)
			}
		})
	}
}

// TestFollowerCloseAndPromoteDoNotWaitOutTheStream: a follower whose
// /changes stream is open and idle, in a 25 s window, closes or is
// promoted within a second — it leaves the stream without reading the
// rest of it.
func TestFollowerCloseAndPromoteDoNotWaitOutTheStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*netcoord.FollowerRegistry) error
	}{
		{"Close", func(f *netcoord.FollowerRegistry) error { f.Close(); return nil }},
		{"Promote", func(f *netcoord.FollowerRegistry) error { _, err := f.Promote(); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, reg := newTestServiceReg(t, netcoord.RegistryConfig{})
			upsert(t, reg, "seed", 0)
			f, err := netcoord.StartFollower(netcoord.FollowerConfig{Upstreams: []string{ts.URL}, WaitTimeout: 25 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.Close)
			upsert(t, reg, "a", 1) // arrives on the stream, which then idles
			waitConverged(t, f, reg)
			start := time.Now()
			if err := tc.stop(f); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("%s took %v with an idle stream open", tc.name, took)
			}
		})
	}
}
