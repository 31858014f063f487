package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"netcoord"
)

// BenchmarkWatchHub measures the per-mutation cost of the shared watch
// hub with real watcher populations attached: every upsert is
// sequenced, retained in the ring and wakes the hub's sink; the hub
// reads it back from the ring, routes it through the spatial damage
// map, and any damaged watcher recomputes its top-k and reinstalls its
// interest — the full serving path minus HTTP.
//
// BenchmarkWatchFanout (recorded beside this one in BENCH_stream.json)
// is what each attached sink costs the mutation path by itself. Here
// the damage map touches only the watchers an event can affect, so the
// cost at watchers=10240 must stay within a small multiple of
// watchers=8 — sublinear fan-out is the whole point.
func BenchmarkWatchHub(b *testing.B) {
	for _, watchers := range []int{8, 1024, 10240} {
		b.Run(fmt.Sprintf("watchers=%d", watchers), func(b *testing.B) {
			reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: 1 << 14})
			if err != nil {
				b.Fatal(err)
			}
			defer reg.Close()
			const population = 1 << 16
			rng := rand.New(rand.NewSource(7))
			ids := make([]string, population)
			batch := make([]netcoord.RegistryEntry, population)
			for i := range batch {
				ids[i] = fmt.Sprintf("node-%05d", i)
				batch[i] = netcoord.RegistryEntry{
					ID:    ids[i],
					Coord: c3(rng.Float64()*512, rng.Float64()*512, rng.Float64()*512),
					Error: 0.2,
				}
			}
			if err := reg.UpsertBatch(batch); err != nil {
				b.Fatal(err)
			}

			shutdown := make(chan struct{})
			defer close(shutdown)
			hub := newWatchHub(reg, shutdown)
			// Each watcher runs the handler loop: park on damage,
			// recompute, reinstall interest.
			for i := 0; i < watchers; i++ {
				w := hub.Watch("")
				origin := c3(rng.Float64()*512, rng.Float64()*512, rng.Float64()*512)
				hubSync(b, hub, w, reg, origin, 4)
				go func(w *HubWatcher, origin netcoord.Coordinate) {
					for {
						select {
						case <-shutdown:
							return
						case <-w.C():
							hubSync(b, hub, w, reg, origin, 4)
						}
					}
				}(w, origin)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Nudge a node: most moves land outside every watcher's
				// ball (the stable-coordinates regime the paper
				// promises), some damage a few watchers.
				j := i % population
				c := batch[j].Coord
				c.Vec[0] += 0.25
				if c.Vec[0] > 512 {
					c.Vec[0] = 0
				}
				if err := reg.Upsert(ids[j], c, 0.2); err != nil {
					b.Fatal(err)
				}
				// Backpressure: cap the hub's backlog below the ring so
				// no event is ever overwritten unread — the measurement
				// then includes every routing cost. (A real mutation
				// path never waits; falling off the ring there is a
				// counted skip plus a conservative resync.)
				if i%1024 == 1023 {
					for reg.ChangeSeq()-hub.Processed() > 2048 {
						runtime.Gosched()
					}
				}
			}
			// The cost isn't paid until the hub has routed everything:
			// wait for it.
			target := reg.ChangeSeq()
			for hub.Processed() < target {
				runtime.Gosched()
			}
			b.StopTimer()
			st := hub.Stats()
			b.ReportMetric(float64(st.Damages)/float64(b.N), "damages/op")
		})
	}
}
