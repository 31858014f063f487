package server

import (
	"fmt"
	"net/http/httptest"
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
