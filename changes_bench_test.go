package netcoord

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkWatchFanout measures the mutation hot path with sinks
// attached: every upsert is sequenced, encoded once, retained in the
// ring, and handed inline to each sink, which makes a non-blocking send
// on its own cap-1 channel to a goroutine draining it — the shape of
// the watch hub's wake-up, whose reader then re-reads the ring. subs=0
// is the bare upsert; the rows above it add what each attached sink
// costs every mutation, and CI gates all of them at 0 allocs/op.
func BenchmarkWatchFanout(b *testing.B) {
	for _, subs := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			r, err := NewRegistry(RegistryConfig{ChangeStreamBuffer: 1 << 14})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			var drained sync.WaitGroup
			defer drained.Wait() // deferred first, so it runs after every close below
			for i := 0; i < subs; i++ {
				wake := make(chan struct{}, 1)
				sub := r.feed.SubscribeFunc(func(*ChangeEvent) bool {
					select {
					case wake <- struct{}{}:
					default:
					}
					return true
				}, func() {})
				drained.Add(1)
				go func() {
					defer drained.Done()
					for range wake {
					}
				}()
				defer func() {
					sub.Close() // no send is in flight once this returns
					close(wake)
				}()
			}
			const population = 1024
			ids := make([]string, population)
			coords := make([]Coordinate, population)
			for i := range ids {
				ids[i] = fmt.Sprintf("node-%04d", i)
				coords[i] = c3(float64(i%97), float64(i%89), float64(i%13))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Upsert(ids[i%population], coords[(i+1)%population], 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelayForward measures the relay-forward hot path: an event
// that carries its frame bytes (as a follower keeps them at ingest, as
// publish encodes them at the origin) is appended to an outgoing batch.
// This must be a pure copy of those bytes — zero allocations, zero
// encodes — or every tier of a fan-out tree re-pays the encode the
// origin already paid once. CI gates it at 0 allocs/op.
func BenchmarkRelayForward(b *testing.B) {
	evs := make([]ChangeEvent, 256)
	for i := range evs {
		ev := ChangeEvent{Seq: uint64(i + 1), Op: ChangeUpsert, PubNs: 1712345678901234567, Entry: RegistryEntry{
			ID:        fmt.Sprintf("node-%04d", i),
			Coord:     c3(float64(i%97), float64(i%89), float64(i%13)),
			Error:     0.15,
			UpdatedAt: time.Unix(0, 1712345678901234567),
		}}
		if _, err := ev.Encode(nil); err != nil { // the one encode, as at publish
			b.Fatal(err)
		}
		evs[i] = ev
	}
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(buf) > 1<<15 {
			buf = buf[:0] // stay inside the preallocated batch buffer
		}
		var err error
		if buf, err = evs[i%len(evs)].AppendFrameTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}
