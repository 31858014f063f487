package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"netcoord/internal/golden"
)

// getCorpus holds the GET requests of the read surface the golden pins:
// /nearest centered on a registered node in both modes, with every
// parameter error, and the first frame of /watch in both modes.
var getCorpus = []string{
	"/nearest?id=node-03&k=3",
	"/nearest?id=node-03",
	"/nearest?id=node-03&k=12",
	"/nearest?id=node-03&radius_ms=6",
	"/nearest?id=node-03&radius_ms=0",
	"/nearest?id=node-03&radius_ms=Inf",
	"/nearest?id=node-03&radius_ms=6&k=0",
	"/nearest?id=node-03&k=0",
	"/nearest?id=node-03&k=-1",
	"/nearest?id=node-03&k=1025",
	"/nearest?id=node-03&k=abc",
	"/nearest?id=node-03&radius_ms=abc",
	"/nearest?id=node-03&radius_ms=-1",
	"/nearest?id=node-03&radius_ms=NaN",
	"/nearest?id=node-03&radius_ms=1e400",
	"/nearest?id=ghost&k=2",
	"/nearest?id=ghost",
	"/nearest?id=ghost&radius_ms=5",
	"/nearest?id=ghost&radius_ms=-1",
	"/nearest?id=ghost&k=0",
	"/nearest",
	"/nearest?k=2",
	"/watch?id=node-03&k=3",
	"/watch?id=node-03",
	"/watch?vec=1,2,3&k=4",
	"/watch?vec=1,2,3&height=0.5",
	"/watch?id=ghost",
	"/watch?id=ghost&k=2",
	"/watch?vec=1,2",
	"/watch?vec=1,2,3&k=0",
	"/watch?vec=a,b,c",
	"/watch",
}

// firstFrame is a ResponseWriter that reports the first flush: /watch
// flushes once its snapshot frame is written, and never returns on its
// own after that.
type firstFrame struct {
	*httptest.ResponseRecorder
	once    sync.Once
	flushed chan struct{}
}

func (f *firstFrame) Flush() {
	f.ResponseRecorder.Flush()
	f.once.Do(func() { close(f.flushed) })
}

// serveGet answers one GET: everything the handler wrote until it
// returned or, for a stream, flushed its first frame.
func serveGet(h http.Handler, path string) *httptest.ResponseRecorder {
	ctx, cancel := context.WithCancel(context.Background())
	w := &firstFrame{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	}()
	select {
	case <-w.flushed:
	case <-done:
	}
	cancel()
	<-done
	return w.ResponseRecorder
}

// TestGetBodiesGolden pins every GET corpus request's status and
// response bytes to testdata/get_bodies.golden. Regenerate with
// `go test ./internal/server -run TestGetBodiesGolden -update` and
// review the diff.
func TestGetBodiesGolden(t *testing.T) {
	srv := goldenServer(t)
	var got bytes.Buffer
	for _, path := range getCorpus {
		rec := serveGet(srv, path)
		fmt.Fprintf(&got, "### GET %s\n%d %s", path, rec.Code, rec.Body.Bytes())
	}
	golden.Check(t, filepath.Join("testdata", "get_bodies.golden"), got.Bytes())
}
