package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"netcoord"
)

// BenchmarkFollowerCatchup measures a replica catching up from nothing
// over loopback HTTP: the leader's capture and frame encode of
// /snapshot (format=frames, the only encoding replication speaks), the
// follower's streaming frame decode, and the bulk index build — the
// time from `ncserve -upstreams` starting to the replica serving warm
// reads of a 100k-entry leader.
func BenchmarkFollowerCatchup(b *testing.B) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	srv := New(Config{Registry: reg})
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const entries = 100_000
	batch := make([]netcoord.RegistryEntry, entries)
	for i := range batch {
		batch[i] = netcoord.RegistryEntry{
			ID:    fmt.Sprintf("node-%06d", i),
			Coord: netcoord.Coordinate{Vec: []float64{float64(i % 997), float64(i % 601), float64(i % 251)}},
			Error: 0.2,
		}
	}
	if err := reg.UpsertBatch(batch); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := netcoord.StartFollower(netcoord.FollowerConfig{
			Upstreams:   []string{ts.URL},
			WaitTimeout: 50 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if f.Len() != entries {
			b.Fatalf("follower loaded %d entries, want %d", f.Len(), entries)
		}
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkReplicateDelivery measures one replication hop the way the
// write-replicate workload drives it, in process: each op is one upsert
// on a leader served over loopback HTTP, then a wait until a follower
// tailing it (StartFollower, default wait window) has applied that
// sequence. Nine ops in ten are heartbeats (the same coordinate again)
// and one a move, the regime the paper predicts for application
// coordinates. changes_reqs/op is the /changes requests the leader
// received per op: what each delivered batch costs in HTTP round trips.
func BenchmarkReplicateDelivery(b *testing.B) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	srv := New(Config{Registry: reg})
	var changesReqs atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/changes" {
			changesReqs.Add(1)
		}
		srv.ServeHTTP(w, req)
	}))
	defer ts.Close()
	defer srv.Stop()

	const n = 1000
	ids, coords := make([]string, n), make([]netcoord.Coordinate, n)
	for i := range coords {
		ids[i] = fmt.Sprintf("node-%04d", i)
		coords[i] = netcoord.Coordinate{Vec: []float64{float64(i % 97), float64(i % 61), float64(i % 29)}}
		if err := reg.Upsert(ids[i], coords[i], 0.2); err != nil {
			b.Fatal(err)
		}
	}
	f, err := netcoord.StartFollower(netcoord.FollowerConfig{Upstreams: []string{ts.URL}})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	applied := f.FollowChanges()
	defer applied.Close()

	b.ReportAllocs()
	b.ResetTimer()
	reqs := changesReqs.Load()
	for i := 0; i < b.N; i++ {
		id := i % n
		c := coords[id]
		if i%10 == 9 {
			c = netcoord.Coordinate{Vec: []float64{c.Vec[0] + 1, c.Vec[1], c.Vec[2]}}
			coords[id] = c
		}
		if err := reg.Upsert(ids[id], c, 0.2); err != nil {
			b.Fatal(err)
		}
		for seq := reg.ChangeSeq(); f.AppliedSeq() < seq; {
			<-applied.Wake()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(changesReqs.Load()-reqs)/float64(b.N), "changes_reqs/op")
}
