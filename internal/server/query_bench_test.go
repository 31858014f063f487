package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"testing"

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

// BenchmarkServeNearestBatch is the read-batch workload's request in
// process: POST /nearest/batch of 32 k=8 queries, in the load
// generator's body shape, against 100k entries, through ServeHTTP —
// body read, decode, the batch, encode — with no socket. Per-op time
// and allocations are one request's.
func BenchmarkServeNearestBatch(b *testing.B) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(reg.Close)
	rng := rand.New(rand.NewSource(1))
	point := func() netcoord.Coordinate {
		return c3(rng.Float64()*300, rng.Float64()*300, rng.Float64()*300)
	}
	entries := make([]netcoord.RegistryEntry, 100_000)
	for i := range entries {
		entries[i] = netcoord.RegistryEntry{ID: fmt.Sprintf("node-%07d", i), Coord: point(), Error: 0.2}
	}
	if err := reg.UpsertBatch(entries); err != nil {
		b.Fatal(err)
	}
	srv := New(Config{Registry: reg})
	b.Cleanup(srv.Stop)

	body := []byte(`{"queries":[`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		c := point()
		body = append(body, `{"coord":{"vec":[`...)
		for d, x := range c.Vec {
			if d > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, x, 'g', -1, 64)
		}
		body = append(body, `],"height":0},"k":8}`...)
	}
	body = append(body, "]}"...)

	req, err := http.NewRequest(http.MethodPost, "/nearest/batch", nil)
	if err != nil {
		b.Fatal(err)
	}
	rb := new(replayBody)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(body)
		req.Body = rb
		w.code, w.n = 0, 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			b.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
}
