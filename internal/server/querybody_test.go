package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netcoord"
)

// stdlibQueries decodes body the way the handlers did before the
// parser: encoding/json into their types.
func stdlibQueries(body []byte, batch bool) ([]nearestBatchQuery, bool) {
	qr := new(queryRequest)
	if !qr.decodeStdlib(httptest.NewRecorder(), bytes.NewReader(body), batch) {
		return nil, false
	}
	return qr.queries, true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameQueries reports whether two decodes of a body are the same to
// the bit: K, the radius's presence and value, every component
// (signed zeros included), the height, and a non-nil vector.
func sameQueries(a, b []nearestBatchQuery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		qa, qb := &a[i], &b[i]
		if qa.K != qb.K || (qa.RadiusMS == nil) != (qb.RadiusMS == nil) || !sameFloat(qa.Coord.Height, qb.Coord.Height) {
			return false
		}
		if qa.RadiusMS != nil && !sameFloat(*qa.RadiusMS, *qb.RadiusMS) {
			return false
		}
		va, vb := qa.Coord.Vec, qb.Coord.Vec
		if (va == nil) != (vb == nil) || len(va) != len(vb) {
			return false
		}
		for d := range va {
			if !sameFloat(va[d], vb[d]) {
				return false
			}
		}
	}
	return true
}

// checkQueryBody parses body as both query shapes and, wherever the
// parser accepts it, requires encoding/json to accept it too and to
// decode exactly the same queries. It reports which shapes the parser
// accepted.
func checkQueryBody(t *testing.T, body []byte) (batch, single bool) {
	t.Helper()
	accepted := [2]bool{}
	for i, isBatch := range []bool{true, false} {
		qr := &queryRequest{body: body}
		if !qr.parse(isBatch) {
			continue
		}
		accepted[i] = true
		want, ok := stdlibQueries(body, isBatch)
		if !ok {
			t.Fatalf("parser accepted (batch %v) a body encoding/json rejects: %q", isBatch, body)
		}
		if !sameQueries(qr.queries, want) {
			t.Fatalf("parser (batch %v) diverges from encoding/json on %q:\n got %+v\nwant %+v", isBatch, body, qr.queries, want)
		}
	}
	return accepted[0], accepted[1]
}

// TestQueryParserMatchesStdlib runs the whole corpus through the
// parser and encoding/json, and pins which corpus shapes the parser
// takes: everything above the first stdlib-only shape in queryCorpus,
// and nothing from it on.
func TestQueryParserMatchesStdlib(t *testing.T) {
	firstDeclined := -1
	for i, q := range queryCorpus {
		if q.name == "case-folded-key" {
			firstDeclined = i
		}
	}
	if firstDeclined < 0 {
		t.Fatal("corpus lost its first stdlib-only shape")
	}
	for i, q := range queryCorpus {
		wantAccept := i < firstDeclined
		if _, single := checkQueryBody(t, q.body); single != wantAccept {
			t.Errorf("%s: parser accepted the single body: %v, want %v", q.name, single, wantAccept)
		}
		batch := []byte(`{"queries":[` + string(q.body) + `,` + string(q.body) + `]}`)
		if got, _ := checkQueryBody(t, batch); got != wantAccept {
			t.Errorf("%s: parser accepted the batch body: %v, want %v", q.name, got, wantAccept)
		}
	}
	for _, b := range goldenBodies() {
		batch, single := checkQueryBody(t, b.body)
		if strings.Contains(b.name, "trailing") && b.name != "trailing/whitespace-only" && (batch || single) {
			t.Errorf("%s: parser accepted bytes after the value", b.name)
		}
	}
	// An empty vector decodes empty, not nil, on both paths.
	qr := &queryRequest{body: []byte(`{"coord":{"vec":[]}}`)}
	if !qr.parse(false) || qr.queries[0].Coord.Vec == nil {
		t.Fatalf("empty vec: parsed %v, vec %#v", qr.queries, qr.queries)
	}
}

// TestQueryBodiesAnswerLikeStdlib drives every corpus body through
// ServeHTTP and through encoding/json decoding followed by the same
// answer, and requires the same status and bytes.
func TestQueryBodiesAnswerLikeStdlib(t *testing.T) {
	srv := goldenServer(t)
	for _, b := range goldenBodies() {
		got := serveBody(srv, b)
		want := httptest.NewRecorder()
		body := http.MaxBytesReader(want, io.NopCloser(bytes.NewReader(b.body)), goldenMaxBody)
		qr := new(queryRequest)
		batch := !strings.HasPrefix(b.name, "nearest/")
		if qr.decodeStdlib(want, body, batch) {
			if batch {
				srv.answerBatch(want, qr)
			} else {
				srv.answerNearest(want, &qr.queries[0])
			}
		}
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: served %d %s\nencoding/json %d %s", b.name, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	}
}

// TestTrailingBytesRejected: a body is one JSON value. Anything after it
// but whitespace is a 400 on every POST handler, and nothing is applied.
func TestTrailingBytesRejected(t *testing.T) {
	ts, reg := newTestServiceReg(t, netcoord.RegistryConfig{})
	for _, c := range []struct{ path, body string }{
		{"/upsert", `{"id":"a","coord":{"vec":[1,2,3]}}{"id":"b","coord":{"vec":[4,5,6]}}`},
		{"/upsert", `{"entries":[{"id":"a","coord":{"vec":[1,2,3]}}]}]`},
		{"/remove", `{"id":"a"} {"id":"b"}`},
		{"/nearest", `{"coord":{"vec":[1,2,3]},"k":2}}`},
		{"/nearest/batch", `{"queries":[{"coord":{"vec":[1,2,3]},"k":2}]}]]]`},
		{"/nearest/batch", `{"queries":[{"coord":{"vec":[1,2,3]},"k":2}]} "x"`},
	} {
		code, out := postJSON(t, ts.URL+c.path, c.body)
		if code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "bad request body") {
			t.Errorf("POST %s %s: %d %v, want 400 bad request body", c.path, c.body, code, out)
		}
	}
	if n := reg.Len(); n != 0 {
		t.Fatalf("rejected upserts applied %d entries", n)
	}
	if code, out := postJSON(t, ts.URL+"/upsert", `{"id":"a","coord":{"vec":[1,2,3]}}`+" \r\n\t"); code != http.StatusOK {
		t.Fatalf("trailing whitespace: %d %v", code, out)
	}
}

// TestQueryParseAllocatesNothing: once a pooled request has grown to a
// body's size, parsing the next such body allocates nothing.
func TestQueryParseAllocatesNothing(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"coord":{"vec":[12.345678901234,-98.7654321,0.001234],"height":0},"k":8}`)
	}
	b.WriteString(`]}`)
	qr := &queryRequest{body: []byte(b.String())}
	if allocs := testing.AllocsPerRun(100, func() {
		if !qr.parse(true) || len(qr.queries) != 32 {
			t.Fatal("parser declined a plain batch")
		}
	}); allocs != 0 {
		t.Fatalf("parse allocates %v times per body", allocs)
	}
}

// FuzzQueryBody: for any input, the parser either declines or decodes
// exactly what encoding/json decodes, as either query shape.
func FuzzQueryBody(f *testing.F) {
	for _, b := range goldenBodies() {
		f.Add(b.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkQueryBody(t, body)
	})
}
