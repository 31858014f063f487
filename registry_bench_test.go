// Registry and selection benchmarks: the spatial index versus the
// brute-force scan at increasing scale. The acceptance bar for the
// registry subsystem is Nearest(k=8) at n=100k answering >= 10x faster
// than the brute-force Nearest over the same entries.
//
//	go test -bench 'RegistryNearest|BruteNearest' -benchtime 1x
package netcoord

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"netcoord/internal/telemetry"
	"netcoord/internal/xrand"
)

// benchSizes are the registry populations benchmarked. 1M demonstrates
// the "millions of users" regime; its setup builds the index once and is
// excluded from timing.
var benchSizes = []int{10_000, 100_000, 1_000_000}

// buildBenchRegistry populates a registry (and a parallel candidate
// slice for the brute-force baseline) with n random coordinates.
func buildBenchRegistry(b *testing.B, n int) (*Registry, []Candidate) {
	b.Helper()
	r, err := NewRegistry(RegistryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	rng := xrand.NewStream(uint64(n))
	batch := make([]RegistryEntry, 0, 1024)
	cands := make([]Candidate, 0, n)
	for i := 0; i < n; i++ {
		c := Origin(3)
		for d := range c.Vec {
			c.Vec[d] = rng.Uniform(0, 300)
		}
		id := fmt.Sprintf("node-%07d", i)
		batch = append(batch, RegistryEntry{ID: id, Coord: c})
		cands = append(cands, Candidate{ID: id, Coord: c})
		if len(batch) == cap(batch) {
			if err := r.UpsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := r.UpsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return r, cands
}

func benchQuery(rng *xrand.Stream) Coordinate {
	q := Origin(3)
	for d := range q.Vec {
		q.Vec[d] = rng.Uniform(0, 300)
	}
	return q
}

// benchQueryCoords pre-generates query points so the measured loop pays
// for the query engine only — required by the zero-alloc gates, since
// building a Coordinate allocates its vector.
func benchQueryCoords(seed uint64, n int) []Coordinate {
	rng := xrand.NewStream(seed)
	out := make([]Coordinate, n)
	for i := range out {
		out[i] = benchQuery(rng)
	}
	return out
}

// BenchmarkRegistryNearest measures k=8 proximity queries against the
// kd-tree registry through the zero-allocation NearestInto path. CI
// gates allocs/op == 0 on every variant via tools/benchjson
// -require-zero-alloc: the pooled query scratch plus caller-owned
// result storage make the steady-state read path garbage-free at every
// population.
func BenchmarkRegistryNearest(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, _ := buildBenchRegistry(b, n)
			queries := benchQueryCoords(99, 4096)
			dst := make([]Ranked, 0, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.NearestInto(queries[i&4095], 8, dst)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 8 {
					b.Fatalf("got %d results", len(res))
				}
				dst = res[:0]
			}
		})
	}
}

// BenchmarkRegistryMixed is the serving stack's steady state in one
// process: RunParallel readers (k=8 NearestInto) against one writer
// goroutine doing the 90 % heartbeat / 10 % move mix over 100k entries
// with the change stream on. ns/op is per read; writes/s is what the
// writer got through beside the readers. At -cpu 1,2 it says what one
// RWMutex costs reads under write pressure, and writes under read
// pressure.
func BenchmarkRegistryMixed(b *testing.B) {
	const n = 100_000
	r, _ := buildBenchRegistry(b, n)
	rng := xrand.NewStream(7)
	ids := make([]string, 4096)
	moves := make([]Coordinate, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%07d", rng.Intn(n))
		moves[i] = benchQuery(rng)
	}
	queries := benchQueryCoords(99, 4096)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	var writes int
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				writes = i
				return
			default:
			}
			j := i & 4095
			c := moves[(j+(i>>12))&4095] // somewhere new on every pass over ids
			if i%10 != 0 {
				// A heartbeat: the coordinate the entry already has.
				e, _ := r.Get(ids[j])
				c = e.Coord
			}
			if err := r.Upsert(ids[j], c, 0.3); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]Ranked, 0, 8)
		for i := 0; pb.Next(); i++ {
			res, err := r.NearestInto(queries[i&4095], 8, dst)
			if err != nil {
				b.Error(err)
				return
			}
			dst = res[:0]
		}
	})
	b.StopTimer()
	close(stop)
	writer.Wait()
	b.ReportMetric(float64(writes)/b.Elapsed().Seconds(), "writes/s")
}

// BenchmarkRegistryHeap reports the live heap a 100k-entry registry
// holds per entry, in B/entry: "built" right after the state load a
// restart or a replica bootstrap makes, and "rendered" after every
// stored point has rendered its JSON memo once, as answers do. Entries
// are node-%07d ids at 3-D coordinates with a height, each id and
// vector an allocation of its own, as a decoded snapshot's are. ns/op
// is the load, the rendering and the collections around them.
func BenchmarkRegistryHeap(b *testing.B) {
	const n = 100_000
	for _, rendered := range []bool{false, true} {
		name := "built"
		if rendered {
			name = "rendered"
		}
		b.Run(name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				before := liveHeap()
				r := loadHeapRegistry(b, n)
				if rendered {
					renderAll(b, r)
				}
				total += liveHeap() - before
				runtime.KeepAlive(r)
			}
			b.ReportMetric(float64(total)/float64(b.N)/n, "B/entry")
		})
	}
}

// liveHeap is the heap in use once collections have freed what is
// dead; the second one also empties sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// loadHeapRegistry builds a registry of n entries through a full state
// load, the path recovery and a follower's bootstrap take; the input
// slice is garbage once it returns.
func loadHeapRegistry(b *testing.B, n int) *Registry {
	b.Helper()
	r, err := newRegistry(RegistryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(uint64(n))
	at := time.Unix(1_700_000_000, 0)
	entries := make([]RegistryEntry, n)
	for i := range entries {
		c := Origin(3)
		for d := range c.Vec {
			c.Vec[d] = rng.Uniform(0, 300)
		}
		c.Height = rng.Uniform(0, 20)
		entries[i] = RegistryEntry{ID: fmt.Sprintf("node-%07d", i), Coord: c, Error: 0.2, UpdatedAt: at, Seq: uint64(i + 1)}
	}
	if err := r.load(entries, nil, false, uint64(n), 0); err != nil {
		b.Fatal(err)
	}
	return r
}

// renderAll renders every stored point once through its memo.
func renderAll(b *testing.B, r *Registry) {
	b.Helper()
	res, err := r.Query(NearestQuery{From: Origin(3), K: math.MaxInt}, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	for i := range res {
		var ok bool
		if buf, ok = res[i].AppendJSON(buf[:0]); !ok {
			b.Fatalf("%s: AppendJSON declined", res[i].ID)
		}
	}
}

// BenchmarkNearestBatch measures the batched read path: 256 queries
// answered in one Registry call, the shape the /nearest/batch endpoint
// produces. Reported per-op time covers the whole batch; divide by 256 to compare with
// BenchmarkRegistryNearest.
func BenchmarkNearestBatch(b *testing.B) {
	const batchSize = 256
	r, _ := buildBenchRegistry(b, 100_000)
	coords := benchQueryCoords(99, batchSize)
	queries := make([]NearestQuery, batchSize)
	for i := range queries {
		queries[i] = NearestQuery{From: coords[i], K: 8}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.NearestBatch(queries)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != batchSize {
			b.Fatalf("got %d result sets", len(res))
		}
	}
}

// BenchmarkNearestBatchParallel is BenchmarkNearestBatch with a batch
// in flight on every processor (RunParallel), the shape of a server
// whose every core is already answering a request: the per-core split
// then has no idle core to use and must cost nothing on top. Per-op
// time is one 256-query batch, as above.
func BenchmarkNearestBatchParallel(b *testing.B) {
	const batchSize = 256
	r, _ := buildBenchRegistry(b, 100_000)
	coords := benchQueryCoords(99, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		queries := make([]NearestQuery, batchSize)
		for i := range queries {
			queries[i] = NearestQuery{From: coords[i], K: 8}
		}
		for pb.Next() {
			res, err := r.NearestBatch(queries)
			if err != nil {
				b.Error(err)
				return
			}
			if len(res) != batchSize {
				b.Errorf("got %d result sets", len(res))
				return
			}
		}
	})
}

// BenchmarkBruteNearest is the baseline the index must beat: the
// O(n log k) scan over a candidate slice of the same n coordinates.
func BenchmarkBruteNearest(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, cands := buildBenchRegistry(b, n)
			rng := xrand.NewStream(99)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Nearest(benchQuery(rng), cands, 8)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 8 {
					b.Fatalf("got %d results", len(res))
				}
			}
		})
	}
}

// BenchmarkRegistryUpsert measures steady-state refresh throughput: the
// write path a heartbeat-driven deployment exercises continuously.
func BenchmarkRegistryUpsert(b *testing.B) {
	r, _ := buildBenchRegistry(b, 100_000)
	rng := xrand.NewStream(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("node-%07d", rng.Intn(100_000))
		if err := r.Upsert(id, benchQuery(rng), 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryMutationBare and ...Instrumented bound the cost of
// observability on the write path. Bare is the served mutation as-is —
// which already includes the change stream's publish stamp; the
// instrumented variant adds the per-mutation telemetry the serving
// stack layers on top (a latency observation and a counter). Both must
// stay allocation-free: ids and coordinates are pre-generated so the
// loop measures Upsert, not fmt. CI gates allocs/op == 0 on both via
// tools/benchjson -require-zero-alloc.
func benchMutationFixtures(b *testing.B) (*Registry, []string, []Coordinate) {
	b.Helper()
	const n = 100_000
	r, _ := buildBenchRegistry(b, n)
	// A nonzero fencing epoch on the registry's own feed, so the measured
	// path includes the sequencing and epoch stamp a post-promotion
	// leader pays. The zero-alloc gate then proves fencing costs no
	// garbage on the write path.
	r.feed.SetEpoch(3)
	rng := xrand.NewStream(7)
	ids := make([]string, 4096)
	coords := make([]Coordinate, 4096)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%07d", rng.Intn(n))
		coords[i] = benchQuery(rng)
	}
	return r, ids, coords
}

func BenchmarkTelemetryMutationBare(b *testing.B) {
	r, ids, coords := benchMutationFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		if err := r.Upsert(ids[j], coords[j], 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTelemetryMutationInstrumented(b *testing.B) {
	r, ids, coords := benchMutationFixtures(b)
	hist := telemetry.NewHistogram()
	var count telemetry.Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		start := time.Now()
		if err := r.Upsert(ids[j], coords[j], 0.3); err != nil {
			b.Fatal(err)
		}
		hist.Observe(time.Since(start).Nanoseconds())
		count.Inc()
	}
	if hist.Summary().Count == 0 || count.Value() == 0 {
		b.Fatal("instruments saw no observations")
	}
}

// BenchmarkNearestHeap and BenchmarkNearestFullSort quantify the
// bounded-heap win in the one-shot selection API for k << n.
func BenchmarkNearestHeap(b *testing.B) {
	_, cands := buildBenchRegistry(b, 100_000)
	rng := xrand.NewStream(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Nearest(benchQuery(rng), cands, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestFullSort(b *testing.B) {
	_, cands := buildBenchRegistry(b, 100_000)
	rng := xrand.NewStream(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := fullSortNearest(benchQuery(rng), cands, 8); len(got) != 8 {
			b.Fatal("full sort returned short result")
		}
	}
}
