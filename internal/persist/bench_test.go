package persist

import (
	"fmt"
	"testing"
	"time"

	"netcoord/internal/coord"
	"netcoord/internal/wire"
)

// BenchmarkWALReplay measures raw log replay throughput: how fast
// recovery chews through a WAL of upsert records (decode + checksum +
// map apply), independent of registry index construction.
func BenchmarkWALReplay(b *testing.B) {
	const n = 100_000
	dir := b.TempDir()
	s, _, err := Open(dir, Options{FlushInterval: time.Hour})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	at := time.Unix(1_700_000_000, 0)
	for i := 0; i < n; i++ {
		s.LogUpsert(Entry{
			ID:        fmt.Sprintf("node-%07d", i),
			Coord:     coord.New(float64(i%1009), float64(i%601), float64(i%251)),
			Error:     0.2,
			UpdatedAt: at,
		}, uint64(i+1), 1)
	}
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	path := walPath(dir, 1)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := make(map[string]Entry, n)
		rep, err := replayWAL(path, 1, func(ev wire.Event) {
			if ev.Op == wire.OpUpsert {
				state[ev.Entry.ID] = ev.Entry
			}
		})
		if err != nil {
			b.Fatalf("replay: %v", err)
		}
		if rep.records != n || len(state) != n {
			b.Fatalf("replayed %d records into %d entries", rep.records, len(state))
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLogUpsert measures the append hot path: encode + frame +
// buffer enqueue, i.e. the cost a registry mutation pays while holding
// the write lock.
func BenchmarkLogUpsert(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(dir, Options{FlushInterval: 10 * time.Millisecond})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer s.Close()
	e := Entry{
		ID:        "node-0000001",
		Coord:     coord.New(1, 2, 3),
		Error:     0.2,
		UpdatedAt: time.Unix(1_700_000_000, 0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LogUpsert(e, uint64(i+1), 1)
	}
}
