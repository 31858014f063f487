package netcoord

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkRecover measures warm-restart recovery: opening a data
// directory holding a 100k-entry snapshot plus a 10k-record WAL tail,
// through snapshot load, tail replay, and the registry's bulk
// UpsertBatch/index.Build path. This is the time a restarted ncserve
// spends before it can serve its first query warm. The tail moves each
// node at most 20 ms per axis from where the snapshot has it, as the
// ncload recover workload's writes do.
func BenchmarkRecover(b *testing.B) {
	const (
		snapshotN = 100_000
		tailN     = 10_000
	)
	dir := b.TempDir()
	prep, err := OpenPersistentRegistry(PersistentRegistryConfig{
		Dir:              dir,
		SnapshotInterval: -1,
	})
	if err != nil {
		b.Fatalf("OpenPersistentRegistry: %v", err)
	}
	batch := make([]RegistryEntry, snapshotN)
	at := time.Unix(1_700_000_000, 0)
	for i := range batch {
		batch[i] = RegistryEntry{
			ID:        fmt.Sprintf("node-%07d", i),
			Coord:     c3(float64(i%1009), float64(i%601), float64(i%251)),
			Error:     0.2,
			UpdatedAt: at,
		}
	}
	if err := prep.UpsertBatch(batch); err != nil {
		b.Fatalf("UpsertBatch: %v", err)
	}
	if err := prep.Compact(); err != nil {
		b.Fatalf("Compact: %v", err)
	}
	for i := 0; i < tailN; i++ {
		moved := c3(float64(i%1009)+float64(i%41-20), float64(i%601)+float64(i%37-18), float64(i%251)+float64(i%31-15))
		if err := prep.Upsert(fmt.Sprintf("node-%07d", i), moved, 0.2); err != nil {
			b.Fatalf("Upsert: %v", err)
		}
	}
	if err := prep.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := OpenPersistentRegistry(PersistentRegistryConfig{
			Dir:              dir,
			SnapshotInterval: -1,
		})
		if err != nil {
			b.Fatalf("recover: %v", err)
		}
		if p.Len() != snapshotN {
			b.Fatalf("recovered %d entries, want %d", p.Len(), snapshotN)
		}
		b.StopTimer()
		if err := p.Close(); err != nil {
			b.Fatalf("Close: %v", err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(snapshotN+tailN)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}
