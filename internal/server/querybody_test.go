package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netcoord"
	"netcoord/internal/index"
)

// stdlibDecode decodes body the way the handlers did before the
// parser: encoding/json into their types.
func stdlibDecode(body []byte, kind bodyKind) (*queryRequest, bool) {
	qr := new(queryRequest)
	return qr, qr.decodeStdlib(httptest.NewRecorder(), bytes.NewReader(body), kind)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameCoord reports whether two coordinates are the same to the bit:
// every component (signed zeros included), the height, and whether the
// vector is nil.
func sameCoord(a, b netcoord.Coordinate) bool {
	if (a.Vec == nil) != (b.Vec == nil) || len(a.Vec) != len(b.Vec) || !sameFloat(a.Height, b.Height) {
		return false
	}
	for d := range a.Vec {
		if !sameFloat(a.Vec[d], b.Vec[d]) {
			return false
		}
	}
	return true
}

// sameQueries reports whether two decodes of a query body are the same
// to the bit: K, the radius's presence and value, and the coordinate.
func sameQueries(a, b []nearestBatchQuery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		qa, qb := &a[i], &b[i]
		if qa.K != qb.K || (qa.RadiusMS == nil) != (qb.RadiusMS == nil) || !sameCoord(qa.Coord, qb.Coord) {
			return false
		}
		if qa.RadiusMS != nil && !sameFloat(*qa.RadiusMS, *qb.RadiusMS) {
			return false
		}
	}
	return true
}

// sameEntries reports whether two lists of registry entries are the
// same to the bit: ids, coordinates, error weights, stamps and
// sequences.
func sameEntries(a, b []netcoord.RegistryEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ea, eb := &a[i], &b[i]
		if ea.ID != eb.ID || !sameCoord(ea.Coord, eb.Coord) || !sameFloat(ea.Error, eb.Error) || !ea.UpdatedAt.Equal(eb.UpdatedAt) || ea.Seq != eb.Seq {
			return false
		}
	}
	return true
}

// checkBody parses body as the kind's body and, when the parser accepts
// it, requires encoding/json to accept it too and to decode exactly the
// same queries or entries. An upsert's entries must own their ids and
// vectors: they are checked again after the pooled body and floats are
// scribbled over. It reports whether the parser accepted the body.
func checkBody(t *testing.T, body []byte, kind bodyKind) bool {
	t.Helper()
	qr := &queryRequest{body: bytes.Clone(body)}
	if !qr.parse(kind) {
		return false
	}
	want, ok := stdlibDecode(body, kind)
	if !ok {
		t.Fatalf("parser accepted (kind %d) a body encoding/json rejects: %q", kind, body)
	}
	if kind != kindUpsert {
		if !sameQueries(qr.queries, want.queries) {
			t.Fatalf("parser (kind %d) diverges from encoding/json on %q:\n got %+v\nwant %+v", kind, body, qr.queries, want.queries)
		}
		return true
	}
	for i := range qr.body {
		qr.body[i] = '#'
	}
	floats := qr.floats[:cap(qr.floats)]
	for i := range floats {
		floats[i] = math.NaN()
	}
	if !sameEntries(qr.entries, want.entries) {
		t.Fatalf("parser diverges from encoding/json on upsert %q:\n got %+v\nwant %+v", body, qr.entries, want.entries)
	}
	return true
}

// checkQueryBody runs checkBody on body as both query shapes and
// reports which the parser accepted.
func checkQueryBody(t *testing.T, body []byte) (batch, single bool) {
	t.Helper()
	return checkBody(t, body, kindBatch), checkBody(t, body, kindNearest)
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
	if !qr.parse(kindNearest) || qr.queries[0].Coord.Vec == nil {
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
		kind := kindNearest
		if batch {
			kind = kindBatch
		}
		if qr.decodeStdlib(want, body, kind) {
			if batch {
				srv.answerBatch(want, qr)
			} else {
				srv.answerQuery(want, &qr.queries[0], "")
			}
		}
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: served %d %s\nencoding/json %d %s", b.name, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	}
}

// TestUpsertParserMatchesStdlib runs the upsert corpus through the
// parser and encoding/json, and pins which corpus shapes the parser
// takes: everything above the first stdlib-only shape in upsertCorpus,
// and nothing from it on.
func TestUpsertParserMatchesStdlib(t *testing.T) {
	firstDeclined := -1
	for i, b := range upsertCorpus {
		if b.name == "escaped-id" {
			firstDeclined = i
		}
	}
	if firstDeclined < 0 {
		t.Fatal("corpus lost its first stdlib-only shape")
	}
	for i, b := range upsertCorpus {
		if got, want := checkBody(t, b.body, kindUpsert), i < firstDeclined; got != want {
			t.Errorf("%s: parser accepted the body: %v, want %v", b.name, got, want)
		}
	}
	for _, b := range upsertBodies() {
		accepted := checkBody(t, b.body, kindUpsert)
		if strings.HasPrefix(b.name, "trailing/") && b.name != "trailing/whitespace-only" && accepted {
			t.Errorf("%s: parser accepted bytes after the value", b.name)
		}
	}
	// An empty vector decodes empty, not nil, on both paths.
	qr := &queryRequest{body: []byte(`{"id":"e","coord":{"vec":[]}}`)}
	if !qr.parse(kindUpsert) || qr.entries[0].Coord.Vec == nil {
		t.Fatalf("empty vec: parsed %+v", qr.entries)
	}
}

// TestUpsertBodiesAnswerLikeStdlib serves every upsert corpus body to a
// fresh server through ServeHTTP, and to another through encoding/json
// decoding and the same apply, and requires the same status, the same
// response bytes and the same registry, bit for bit.
func TestUpsertBodiesAnswerLikeStdlib(t *testing.T) {
	for _, b := range upsertBodies() {
		srv, reg := upsertServer(t)
		got := serveUpsert(srv, b.body)
		stdSrv, stdReg := upsertServer(t)
		want := httptest.NewRecorder()
		body := http.MaxBytesReader(want, io.NopCloser(bytes.NewReader(b.body)), goldenMaxBody)
		if qr := new(queryRequest); qr.decodeStdlib(want, body, kindUpsert) {
			stdSrv.applyUpsert(want, qr.entries)
		}
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: served %d %s\nencoding/json %d %s", b.name, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
		if g, w := reg.Snapshot(), stdReg.Snapshot(); !sameEntries(g, w) {
			t.Errorf("%s: registry holds %+v\nencoding/json's holds %+v", b.name, g, w)
		}
	}
}

// TestUpsertEntriesOwnTheirStorage: the registry keeps the ids and
// vectors an upsert hands it, so later requests, which reuse the pooled
// body bytes and floats, must leave every stored entry as it was.
func TestUpsertEntriesOwnTheirStorage(t *testing.T) {
	srv, reg := upsertServer(t)
	post := func(body string) {
		t.Helper()
		if rec := serveUpsert(srv, []byte(body)); rec.Code != http.StatusOK {
			t.Fatalf("POST /upsert %s: %d %s", body, rec.Code, rec.Body.Bytes())
		}
	}
	post(`{"id":"aaaa","coord":{"vec":[1,2,3],"height":0.5},"error":0.25}`)
	post(`{"entries":[{"id":"bbbb","coord":{"vec":[4,5,6]}},{"id":"cccc","coord":{"vec":[7,8,9]}}]}`)
	want := reg.Snapshot()
	for i := range want {
		want[i].Coord = want[i].Coord.Clone()
		want[i].ID = strings.Clone(want[i].ID)
	}
	// Same-length ids and vectors, so any aliasing would be overwritten
	// in place; queries too, whose coordinates live in the pooled floats.
	for i := 0; i < 200; i++ {
		post(fmt.Sprintf(`{"id":"z%03d","coord":{"vec":[%d,-%d,%d.5],"height":%d}}`, i, i, i, i, i))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/nearest", strings.NewReader(fmt.Sprintf(`{"coord":{"vec":[%d,%d,%d]},"k":3}`, -i, i, -i))))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /nearest: %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, w := range want {
		got, ok := reg.Get(w.ID)
		if !ok || !sameEntries([]netcoord.RegistryEntry{got}, []netcoord.RegistryEntry{w}) {
			t.Fatalf("%s: stored %+v, want %+v", w.ID, got, w)
		}
	}
	for _, e := range reg.Snapshot() {
		if e.ID != "aaaa" && e.ID != "bbbb" && e.ID != "cccc" && (len(e.ID) != 4 || e.ID[0] != 'z') {
			t.Fatalf("stored id %q was written over", e.ID)
		}
	}
}

// TestUpsertAckMatchesStdlib: the append-encoded ack is byte for byte
// writeJSON of the map the handler used to build, for every field at
// its extremes, and the degraded form is that map with the error's text.
func TestUpsertAckMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 4000, math.MaxInt} {
		for _, u := range []uint64{0, 1, 1 << 53, math.MaxUint64} {
			for _, degraded := range []error{nil, errors.New(`persist: wal write: "disk" <full> & ü`)} {
				got := httptest.NewRecorder()
				writeUpsertAck(got, n, n/2, u, u/3, degraded)
				want := httptest.NewRecorder()
				resp := map[string]any{"applied": n, "entries": n / 2, "seq": u, "epoch": u / 3}
				if degraded != nil {
					resp["persistence_degraded"] = degraded.Error()
				}
				writeJSON(want, http.StatusOK, resp)
				if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
					t.Fatalf("ack %d/%d/%d/%v: %d %q %q\nwant %d %q %q", n, u, u/3, degraded,
						got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(), want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
				}
			}
		}
	}
	// Through the handler, on a persistent leader fenced to epoch 1.
	pr, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{Dir: t.TempDir(), SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := pr.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	srv := New(Config{Registry: pr.Registry, Persist: pr})
	defer srv.Stop()
	if rec := serveUpsert(srv, []byte(`{"id":"a","coord":{"vec":[1,2,3]}}`)); rec.Code != http.StatusOK {
		t.Fatalf("upsert: %d %s", rec.Code, rec.Body.Bytes())
	}
	promote := httptest.NewRecorder()
	srv.ServeHTTP(promote, httptest.NewRequest(http.MethodPost, "/promote", nil))
	if promote.Code != http.StatusOK || pr.ChangeEpoch() != 1 {
		t.Fatalf("promote: %d %s, epoch %d", promote.Code, promote.Body.Bytes(), pr.ChangeEpoch())
	}
	got := serveUpsert(srv, []byte(`{"entries":[{"id":"b","coord":{"vec":[4,5,6]}},{"id":"c","coord":{"vec":[7,8,9]}}]}`))
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, map[string]any{"applied": 2, "entries": pr.Len(), "seq": pr.ChangeSeq(), "epoch": pr.ChangeEpoch()})
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || !strings.Contains(got.Body.String(), `"epoch":1,`) {
		t.Fatalf("ack %d %s, want %s", got.Code, got.Body.Bytes(), want.Body.Bytes())
	}
}

// TestUpsertsRaceQueries: concurrent upserts — single and batched,
// repeated and moving — and queries through ServeHTTP share the pooled
// requests. Afterwards every entry is exactly its id's last upsert, and
// the registry answers exactly like Brute over what it holds.
func TestUpsertsRaceQueries(t *testing.T) {
	srv, reg := upsertServer(t)
	const writers, readers, rounds, perWriter = 3, 2, 150, 16
	// upsert is writer w's i-th body; each writer owns its ids.
	upsert := func(w, i int) (id, body string) {
		id = fmt.Sprintf("w%d-%02d", w, i%perWriter)
		entry := fmt.Sprintf(`{"id":%q,"coord":{"vec":[%d,%d,%d],"height":%d},"error":0.5}`, id, i, w*40, -i, i%3)
		if i%4 == 0 {
			return id, `{"entries":[` + entry + `]}`
		}
		return id, entry
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, body := upsert(w, i)
				if rec := serveUpsert(srv, []byte(body)); rec.Code != http.StatusOK {
					t.Errorf("upsert %s: %d %s", body, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := httptest.NewRecorder()
				body := fmt.Sprintf(`{"queries":[{"coord":{"vec":[%d,%d,0]},"k":4},{"coord":{"vec":[0,0,%d]},"radius_ms":30}]}`, i, r, -i)
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/nearest/batch", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("batch %s: %d %s", body, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if reg.Len() != writers*perWriter {
		t.Fatalf("%d entries, want %d", reg.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := rounds - perWriter; i < rounds; i++ {
			id, body := upsert(w, i)
			if qr := new(queryRequest); qr.decodeStdlib(httptest.NewRecorder(), strings.NewReader(body), kindUpsert) {
				got, _ := reg.Get(id)
				got.UpdatedAt, got.Seq = time.Time{}, 0
				if !sameEntries([]netcoord.RegistryEntry{got}, qr.entries) {
					t.Fatalf("%s: stored %+v, want its last upsert %s", id, got, body)
				}
			}
		}
	}
	brute, _ := index.NewBrute(3)
	for _, e := range reg.Snapshot() {
		_ = brute.Insert(e.ID, e.Coord)
	}
	for _, q := range []netcoord.Coordinate{c3(0, 0, 0), c3(75, 40, -75), c3(149, 80, -149), c3(-10, 5, 300)} {
		want, _ := brute.KNearest(q, 8)
		got, err := reg.Nearest(q, 8)
		if err != nil || len(got) != len(want) {
			t.Fatalf("Nearest(%v): %v, %d results, want %d", q, err, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].EstimatedRTT != want[i].Distance {
				t.Fatalf("Nearest(%v)[%d] = %s %v, brute %s %v", q, i, got[i].ID, got[i].EstimatedRTT, want[i].ID, want[i].Distance)
			}
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
		if !qr.parse(kindBatch) || len(qr.queries) != 32 {
			t.Fatal("parser declined a plain batch")
		}
	}); allocs != 0 {
		t.Fatalf("parse allocates %v times per body", allocs)
	}
}

// FuzzQueryBody: for any input, the parser either declines or decodes
// exactly what encoding/json decodes, as either query shape and as an
// upsert, whose entries own their ids and vectors.
func FuzzQueryBody(f *testing.F) {
	for _, b := range append(goldenBodies(), upsertBodies()...) {
		f.Add(b.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkQueryBody(t, body)
		checkBody(t, body, kindUpsert)
	})
}
