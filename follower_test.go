package netcoord

import (
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

// FuzzFollowerFrames feeds arbitrary bytes to a follower's /changes
// ingest, on a replica registry with no tail loop behind it. Whatever
// the body, ingest must not panic, and the stream may move only by the
// events it applied: ChangeSeq advances by exactly the eventsApplied
// delta, so a hostile or torn body can never leave a gap. The seed
// corpus is a real /changes frame body — what a leader serves for the
// mutations below — and its truncations.
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
	body := wire.AppendBatchHeader(nil, wire.BatchHeader{Seq: leader.ChangeSeq(), Epoch: leader.ChangeEpoch(), Count: uint64(len(evs))})
	for i := range evs {
		if len(evs[i].Frame()) == 0 {
			f.Fatalf("event %d carries no frame", evs[i].Seq)
		}
		if body, err = evs[i].AppendFrameTo(body); err != nil {
			f.Fatal(err)
		}
	}
	for cut := 0; cut <= len(body); cut += 7 {
		f.Add(body[:cut])
	}
	f.Add(body)

	f.Fuzz(func(t *testing.T, body []byte) {
		reg, err := newReplicaRegistry(RegistryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		fr := &FollowerRegistry{Registry: reg, applyLag: telemetry.NewHistogram()}
		seq, applied := fr.ChangeSeq(), fr.eventsApplied.Load()
		_ = fr.applyFrames(body) // refusals are fine; gaps are not
		if moved, ok := fr.ChangeSeq()-seq, fr.eventsApplied.Load()-applied; moved != ok {
			t.Fatalf("ChangeSeq moved by %d, %d events applied", moved, ok)
		}
	})
}
