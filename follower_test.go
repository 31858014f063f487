package netcoord

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"netcoord/internal/telemetry"
	"netcoord/internal/wire"
)

// TestFinishBootstrap drives the one place a follower turns a decoded
// snapshot into registry state, with no upstream behind it. A full
// snapshot leaves exactly its entries, on an empty registry and on a
// populated one alike: the ids the snapshot lacks are gone. A delta
// drops only what it names. Whichever path ran, the last entry of a
// repeated id wins, and the stream sits at the snapshot's seq and epoch.
func TestFinishBootstrap(t *testing.T) {
	at := time.Unix(1_700_000_000, 0)
	entry := func(id string, x float64, seq uint64) RegistryEntry {
		return RegistryEntry{ID: id, Coord: c3(x, 0, 0), Error: 0.5, UpdatedAt: at.Add(time.Duration(seq) * time.Second), Seq: seq}
	}
	for _, tc := range []struct {
		name    string
		before  []RegistryEntry
		delta   bool
		removed []string
		batch   []RegistryEntry
		want    []RegistryEntry // sorted by id
	}{{
		name:  "fresh follower, distinct ids",
		batch: []RegistryEntry{entry("a", 1, 3), entry("b", 2, 5), entry("c", 3, 4)},
		want:  []RegistryEntry{entry("a", 1, 3), entry("b", 2, 5), entry("c", 3, 4)},
	}, {
		name:  "fresh follower, repeated id",
		batch: []RegistryEntry{entry("a", 1, 3), entry("b", 2, 4), entry("a", 9, 6)},
		want:  []RegistryEntry{entry("a", 9, 6), entry("b", 2, 4)},
	}, {
		name:   "stale id swept",
		before: []RegistryEntry{entry("b", 7, 1), entry("stale", 8, 2)},
		batch:  []RegistryEntry{entry("a", 1, 3), entry("b", 2, 5), entry("c", 3, 4)},
		want:   []RegistryEntry{entry("a", 1, 3), entry("b", 2, 5), entry("c", 3, 4)},
	}, {
		// As many entries arrive as the registry ends up holding, and
		// one of those it holds is still stale: comparing the two counts
		// would have skipped this sweep.
		name:   "stale id swept although a repeated id evens the counts",
		before: []RegistryEntry{entry("stale", 8, 2)},
		batch:  []RegistryEntry{entry("a", 1, 3), entry("a", 9, 6)},
		want:   []RegistryEntry{entry("a", 9, 6)},
	}, {
		name:    "delta keeps what it does not mention",
		before:  []RegistryEntry{entry("gone", 7, 1), entry("kept", 8, 2), entry("back", 6, 2)},
		delta:   true,
		removed: []string{"gone", "back"},
		batch:   []RegistryEntry{entry("back", 5, 6), entry("new", 4, 5)},
		want:    []RegistryEntry{entry("back", 5, 6), entry("kept", 8, 2), entry("new", 4, 5)},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := newReplicaRegistry(RegistryConfig{ChangeStreamBuffer: 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(reg.Close)
			f := &FollowerRegistry{Registry: reg}
			if len(tc.before) > 0 {
				// What a replica holds, an earlier bootstrap put there.
				if err := f.finishBootstrap(time.Now(), 2, 0, false, nil, tc.before); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.finishBootstrap(time.Now(), 6, 1, tc.delta, tc.removed, tc.batch); err != nil {
				t.Fatalf("finishBootstrap: %v", err)
			}
			if got := f.Registry.Snapshot(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("registry holds\n %+v\nwant\n %+v", got, tc.want)
			}
			if _, seq := f.SnapshotWithSeq(); f.ChangeSeq() != 6 || f.ChangeEpoch() != 1 || seq != 6 {
				t.Fatalf("follower at seq %d epoch %d, snapshot pair at %d; want 6, 1, 6", f.ChangeSeq(), f.ChangeEpoch(), seq)
			}
			// The index agrees with the map: everything wanted is found,
			// and no swept or removed id comes back out of a tombstone.
			near, err := f.Registry.Nearest(c3(0, 0, 0), 10)
			if err != nil {
				t.Fatal(err)
			}
			found := make(map[string]Coordinate, len(near))
			for _, n := range near {
				found[n.ID] = n.Coord
			}
			if len(near) != len(tc.want) {
				t.Fatalf("Nearest found %v, want the %d entries", near, len(tc.want))
			}
			for _, e := range tc.want {
				if c, ok := found[e.ID]; !ok || !c.Equal(e.Coord) {
					t.Fatalf("Nearest has %q at %v (present %v), want %v", e.ID, c, ok, e.Coord)
				}
			}
		})
	}
}

// TestBootstrapErrorNamesUpstreamRefusal points a follower at upstreams
// that refuse /snapshot: the error ends in the status, plus the JSON
// error field when the body has one and nothing of a body that is not
// JSON.
func TestBootstrapErrorNamesUpstreamRefusal(t *testing.T) {
	for _, tc := range []struct {
		name, contentType, body string
		status                  int
		want                    string
	}{
		{"json", "application/json", `{"error":"draining"}`, http.StatusServiceUnavailable, "leader /snapshot: 503 Service Unavailable (draining)"},
		{"plain", "text/plain", "upstream exploded", http.StatusBadGateway, "leader /snapshot: 502 Bad Gateway"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/snapshot" {
					t.Errorf("unexpected request %s", r.URL.Path)
				}
				w.Header().Set("Content-Type", tc.contentType)
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(tc.body))
			}))
			defer up.Close()
			f, err := StartFollower(FollowerConfig{Upstreams: []string{up.URL}})
			if err == nil {
				f.Close()
				t.Fatal("bootstrap against a refusing upstream succeeded")
			}
			if !strings.HasSuffix(err.Error(), tc.want) {
				t.Fatalf("error %q does not end in %q", err, tc.want)
			}
		})
	}
}

// framesBatch is one /changes batch as a leader serves it: the header
// for seq and epoch, then each event's frame.
func framesBatch(t testing.TB, seq, epoch uint64, evs []ChangeEvent) []byte {
	t.Helper()
	body := wire.AppendBatchHeader(nil, wire.BatchHeader{Seq: seq, Epoch: epoch, Count: uint64(len(evs))})
	for i := range evs {
		if len(evs[i].Frame()) == 0 {
			t.Fatalf("event %d carries no frame", evs[i].Seq)
		}
		var err error
		if body, err = evs[i].AppendFrameTo(body); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// FuzzFollowerFrames feeds arbitrary bytes to a follower's /changes
// ingest — the batch reader a live stream goes through — on a replica
// registry with no tail loop behind it. Whatever the body, ingest must
// not panic, and the stream may move only by the events it applied:
// ChangeSeq advances by exactly the eventsApplied delta, so a hostile or
// torn body can never leave a gap. The seed corpus is a real /changes
// frame body — what a leader serves for the mutations below, as one
// batch and as a stream of two and of three — and their truncations,
// among them cuts inside the second batch.
func FuzzFollowerFrames(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	leader, err := NewRegistry(RegistryConfig{TTL: time.Hour, Clock: func() time.Time { return now }})
	if err != nil {
		f.Fatal(err)
	}
	defer leader.Close()
	cur := leader.FollowChanges() // a served leader has its hub's sink: frames are encoded at publish
	defer cur.Close()
	for i := 0; i < 7; i++ {
		if err := leader.Upsert(fmt.Sprintf("n%d", i%6), c3(float64(i), 1, 2), 0.25); err != nil {
			f.Fatal(err)
		}
	}
	leader.Remove("n1")
	now = now.Add(2 * time.Hour)
	if err := leader.Upsert("fresh", c3(7, 7, 7), 0.1); err != nil {
		f.Fatal(err)
	}
	if leader.EvictStale() == 0 {
		f.Fatal("nothing evicted")
	}
	evs, err := leader.ChangesSince(0, 0)
	if err != nil {
		f.Fatal(err)
	}
	seq, epoch := leader.ChangeSeq(), leader.ChangeEpoch()
	body := framesBatch(f, seq, epoch, evs)
	for cut := 0; cut <= len(body); cut += 7 {
		f.Add(body[:cut])
	}
	f.Add(body)
	first := framesBatch(f, evs[3].Seq, epoch, evs[:4])
	two := append(first, framesBatch(f, seq, epoch, evs[4:])...)
	three := append(framesBatch(f, evs[1].Seq, epoch, evs[:2]), framesBatch(f, evs[5].Seq, epoch, evs[2:6])...)
	three = append(three, framesBatch(f, seq, epoch, evs[6:])...)
	f.Add(two)
	f.Add(three)
	for cut := len(first) + 1; cut < len(two); cut += 9 {
		f.Add(two[:cut])
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		reg, err := newReplicaRegistry(RegistryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		fr := &FollowerRegistry{Registry: reg, applyLag: telemetry.NewHistogram()}
		seq, applied := fr.ChangeSeq(), fr.eventsApplied.Load()
		_ = fr.ingest(bytes.NewReader(body)) // refusals are fine; gaps are not
		if moved, ok := fr.ChangeSeq()-seq, fr.eventsApplied.Load()-applied; moved != ok {
			t.Fatalf("ChangeSeq moved by %d, %d events applied", moved, ok)
		}
	})
}

// snapshotFramesBody is what a leader's /snapshot?format=frames serves
// for the registry's state — the full snapshot, or, with delta, the
// delta since since — encoded as the server encodes it.
func snapshotFramesBody(t testing.TB, r *Registry, delta bool, since uint64) []byte {
	t.Helper()
	entries, seq := r.SnapshotWithSeq()
	var removed []string
	if delta {
		var ok bool
		if entries, removed, seq, ok = r.DeltaSince(since); !ok {
			t.Fatalf("no delta since %d", since)
		}
	}
	hdr := wire.SnapshotHeader{Seq: seq, Epoch: r.ChangeEpoch(), Delta: delta, Removed: removed, EntryCount: uint64(len(entries))}
	body, err := wire.AppendSnapshotHeader(nil, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if body, err = wire.AppendEntryFrame(body, &entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// FuzzBootstrapFrames feeds arbitrary bytes to a follower's /snapshot
// ingest, on a replica registry that already holds a bootstrapped state
// at epoch 1, with no tail loop behind it. Whatever the body, ingest
// must not panic. When it succeeds, the registry holds what the body's
// header and frames describe — for a full snapshot its distinct ids, for
// a delta the old ids less the removed ones plus the entries' — and the
// stream sits at the header's Seq. When it fails, the registry is
// unchanged: entries, sequence and epoch. The seed corpus is a real full
// and a real delta /snapshot frame body and their truncations.
func FuzzBootstrapFrames(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	leader, err := NewRegistry(RegistryConfig{Clock: func() time.Time { return now }})
	if err != nil {
		f.Fatal(err)
	}
	defer leader.Close()
	leader.feed.SetEpoch(1)
	for i := 0; i < 9; i++ {
		if err := leader.Upsert(fmt.Sprintf("n%d", i%7), c3(float64(i), 1, 2), 0.25); err != nil {
			f.Fatal(err)
		}
	}
	initial := snapshotFramesBody(f, leader, false, 0)
	since := leader.ChangeSeq()
	leader.Remove("n2")
	if err := leader.Upsert("n3", c3(30, 3, 3), 0.5); err != nil {
		f.Fatal(err)
	}
	for _, body := range [][]byte{snapshotFramesBody(f, leader, false, 0), snapshotFramesBody(f, leader, true, since)} {
		for cut := 0; cut < len(body); cut += 5 {
			f.Add(body[:cut])
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		reg, err := newReplicaRegistry(RegistryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		fr := &FollowerRegistry{Registry: reg}
		if err := fr.bootstrapFrames(bytes.NewReader(initial), time.Now()); err != nil {
			t.Fatal(err)
		}
		before, seq, epoch := reg.Snapshot(), reg.ChangeSeq(), reg.ChangeEpoch()
		if err := fr.bootstrapFrames(bytes.NewReader(body), time.Now()); err != nil {
			if got := reg.Snapshot(); !reflect.DeepEqual(got, before) || reg.ChangeSeq() != seq || reg.ChangeEpoch() != epoch {
				t.Fatalf("a refused body (%v) changed the registry: seq %d -> %d, epoch %d -> %d, %d -> %d entries",
					err, seq, reg.ChangeSeq(), epoch, reg.ChangeEpoch(), len(before), len(got))
			}
			return
		}
		// It decoded: decode it again to know what it said.
		r := wire.NewReader(bytes.NewReader(body), 0)
		hdr, err := r.ReadSnapshotHeader()
		if err != nil {
			t.Fatalf("ingest accepted a body whose header does not decode: %v", err)
		}
		want := map[string]bool{}
		if hdr.Delta {
			for _, e := range before {
				want[e.ID] = true
			}
			for _, id := range hdr.Removed {
				delete(want, id)
			}
		}
		var fr2 wire.Frame
		for i := uint64(0); i < hdr.EntryCount; i++ {
			if err := r.ReadFrame(&fr2); err != nil {
				t.Fatalf("ingest accepted a body whose frame %d does not decode: %v", i, err)
			}
			want[fr2.Entry().ID] = true
		}
		if reg.Len() != len(want) || reg.ChangeSeq() != hdr.Seq || reg.ChangeEpoch() != hdr.Epoch {
			t.Fatalf("ingested %+v: %d entries at seq %d epoch %d, want %d at seq %d epoch %d",
				hdr, reg.Len(), reg.ChangeSeq(), reg.ChangeEpoch(), len(want), hdr.Seq, hdr.Epoch)
		}
		for id := range want {
			if _, ok := reg.Get(id); !ok {
				t.Fatalf("ingested %+v: %q missing", hdr, id)
			}
		}
	})
}
