package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"netcoord"
)

// discardWriter is a ResponseWriter that keeps only the status and the
// byte count, so a benchmark measures the handler, not a recorder.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// replayBody is a request body that can be rewound.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// benchEntries returns n entries named like the load generator's,
// spread over a 300 ms cube, and the point generator that drew them.
func benchEntries(n int) ([]netcoord.RegistryEntry, func() netcoord.Coordinate) {
	rng := rand.New(rand.NewSource(1))
	point := func() netcoord.Coordinate {
		return c3(rng.Float64()*300, rng.Float64()*300, rng.Float64()*300)
	}
	entries := make([]netcoord.RegistryEntry, n)
	for i := range entries {
		entries[i] = netcoord.RegistryEntry{ID: fmt.Sprintf("node-%07d", i), Coord: point(), Error: 0.2}
	}
	return entries, point
}

// appendBenchCoord appends c as the load generator writes it,
// {"vec":[…],"height":h}, every number in strconv's shortest form.
func appendBenchCoord(dst []byte, c netcoord.Coordinate) []byte {
	dst = append(dst, `{"vec":[`...)
	for d, x := range c.Vec {
		if d > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	dst = append(dst, `],"height":`...)
	dst = strconv.AppendFloat(dst, c.Height, 'g', -1, 64)
	return append(dst, '}')
}

// appendBenchEntry appends e as one upsert entry, as the load generator
// writes it.
func appendBenchEntry(dst []byte, e netcoord.RegistryEntry) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendQuote(dst, e.ID)
	dst = append(dst, `,"coord":`...)
	dst = appendBenchCoord(dst, e.Coord)
	dst = append(dst, `,"error":`...)
	dst = strconv.AppendFloat(dst, e.Error, 'g', -1, 64)
	return append(dst, '}')
}

// serveBench POSTs body(i) to path through the handler h(i), for i up
// to b.N, and fails on any status but 200. h may stop the timer while
// it sets up.
func serveBench(b *testing.B, path string, body func(i int) []byte, h func(i int) http.Handler) {
	req, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		b.Fatal(err)
	}
	rb := new(replayBody)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := h(i)
		rb.Reset(body(i))
		req.Body = rb
		w.code, w.n = 0, 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			b.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
}

// nearestBenchServer is the server both query benchmarks send to:
// 100k entries, the load generator's, and the point generator that drew
// them.
func nearestBenchServer(b *testing.B) (*Server, func() netcoord.Coordinate) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(reg.Close)
	entries, point := benchEntries(100_000)
	if err := reg.UpsertBatch(entries); err != nil {
		b.Fatal(err)
	}
	srv := New(Config{Registry: reg})
	b.Cleanup(srv.Stop)
	return srv, point
}

// appendBenchNearest appends a k=8 query for from, as the load generator
// writes one.
func appendBenchNearest(dst []byte, from netcoord.Coordinate) []byte {
	dst = append(dst, `{"coord":`...)
	dst = appendBenchCoord(dst, from)
	return append(dst, `,"k":8}`...)
}

// BenchmarkServeNearest is the read-knn workload's request in process:
// POST /nearest with k=8, in the load generator's body shape, against
// 100k entries, through ServeHTTP — body read, decode, the query,
// encode — with no socket. The query point cycles through 1024.
func BenchmarkServeNearest(b *testing.B) {
	srv, point := nearestBenchServer(b)
	bodies := make([][]byte, 1024)
	for i := range bodies {
		bodies[i] = appendBenchNearest(nil, point())
	}
	serveBench(b, "/nearest", func(i int) []byte { return bodies[i%len(bodies)] }, func(int) http.Handler { return srv })
}

// BenchmarkServeReplicaRead is a read served by a replica: a follower
// that bootstrapped from the 100k-entry leader over loopback HTTP and
// then applied 1000 single-entry moves, so that its apply-lag histogram
// is filled as under write-replicate. Requests go through the
// follower's ServeHTTP with no socket.
//   - nearest: BenchmarkServeNearest's request. What it adds to that
//     benchmark is the X-NC-Staleness and X-NC-Lag stamp every replica
//     read carries.
//   - stamp: that stamp alone, around a handler that writes one byte.
func BenchmarkServeReplicaRead(b *testing.B) {
	leader, point := nearestBenchServer(b)
	ts := httptest.NewServer(leader)
	b.Cleanup(ts.Close)
	f, err := netcoord.StartFollower(netcoord.FollowerConfig{Upstreams: []string{ts.URL}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	for i := 0; i < 1000; i++ {
		if err := leader.reg.Upsert(fmt.Sprintf("node-%07d", i), point(), 0.2); err != nil {
			b.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); f.AppliedSeq() < leader.reg.ChangeSeq(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatalf("follower stuck at seq %d, leader at %d", f.AppliedSeq(), leader.reg.ChangeSeq())
		}
	}
	srv := New(Config{Registry: f.Registry, Follower: f})
	b.Cleanup(srv.Stop)

	b.Run("nearest", func(b *testing.B) {
		bodies := make([][]byte, 1024)
		for i := range bodies {
			bodies[i] = appendBenchNearest(nil, point())
		}
		serveBench(b, "/nearest", func(i int) []byte { return bodies[i%len(bodies)] }, func(int) http.Handler { return srv })
	})
	b.Run("stamp", func(b *testing.B) {
		stamped := srv.staleness(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte{'{'})
		})
		serveBench(b, "/nearest", func(int) []byte { return nil }, func(int) http.Handler { return stamped })
	})
}

// BenchmarkServeNearestBatch is the read-batch workload's request in
// process: POST /nearest/batch of 32 k=8 queries, in the load
// generator's body shape, against 100k entries, through ServeHTTP —
// body read, decode, the batch, encode — with no socket. The body
// cycles through 1024, 32 768 query points in all, so that neither the
// tree's hot paths nor the coordinates' JSON memos are warmer than under
// the load generator's stream of fresh points. Per-op time and
// allocations are one request's.
func BenchmarkServeNearestBatch(b *testing.B) {
	srv, point := nearestBenchServer(b)
	bodies := make([][]byte, 1024)
	for i := range bodies {
		body := []byte(`{"queries":[`)
		for j := 0; j < 32; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			body = appendBenchNearest(body, point())
		}
		bodies[i] = append(body, "]}"...)
	}
	serveBench(b, "/nearest/batch", func(i int) []byte { return bodies[i%len(bodies)] }, func(int) http.Handler { return srv })
}

// BenchmarkServeUpsert is POST /upsert in process, through ServeHTTP —
// body read, decode, UpsertBatch, ack — with no socket, in the load
// generator's two body shapes, each applied through the change stream
// as on ncserve (one frame encoded per entry):
//   - batch=4000: its set-up body of 4000 entries, into a registry that
//     grows to 100k over 25 of them and then starts again empty (untimed).
//     Per-op numbers are one body's: allocs/op ÷ 4000 is per entry.
//   - one: write-replicate's single-entry body against 100k entries,
//     nine heartbeats to every move; the moved entries go back and forth
//     between two spots.
func BenchmarkServeUpsert(b *testing.B) {
	const n, chunk = 100_000, 4000
	entries, point := benchEntries(n)
	newServer := func() (*netcoord.Registry, *Server) {
		reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
		if err != nil {
			b.Fatal(err)
		}
		srv := New(Config{Registry: reg})
		return reg, srv
	}
	b.Run(fmt.Sprintf("batch=%d", chunk), func(b *testing.B) {
		bodies := make([][]byte, n/chunk)
		for c := range bodies {
			body := []byte(`{"entries":[`)
			for i, e := range entries[c*chunk : (c+1)*chunk] {
				if i > 0 {
					body = append(body, ',')
				}
				body = appendBenchEntry(body, e)
			}
			bodies[c] = append(body, "]}"...)
		}
		var reg *netcoord.Registry
		var srv *Server
		stop := func() {
			if srv != nil {
				srv.Stop()
				reg.Close()
			}
		}
		b.Cleanup(stop)
		serveBench(b, "/upsert", func(i int) []byte { return bodies[i%len(bodies)] }, func(i int) http.Handler {
			if i%len(bodies) == 0 {
				b.StopTimer()
				stop()
				reg, srv = newServer()
				b.StartTimer()
			}
			return srv
		})
	})
	b.Run("one", func(b *testing.B) {
		reg, srv := newServer()
		b.Cleanup(func() { srv.Stop(); reg.Close() })
		if err := reg.UpsertBatch(entries); err != nil {
			b.Fatal(err)
		}
		// bodies[0] and bodies[1] differ only in where the moves go.
		var bodies [2][1000][]byte
		for j := range bodies[0] {
			e := entries[j*97%n]
			moved := e
			if j%10 == 9 {
				moved.Coord = point()
			}
			bodies[0][j] = appendBenchEntry(nil, moved)
			bodies[1][j] = appendBenchEntry(nil, e)
		}
		serveBench(b, "/upsert", func(i int) []byte {
			return bodies[i/len(bodies[0])%2][i%len(bodies[0])]
		}, func(int) http.Handler { return srv })
	})
}
