package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netcoord"
	"netcoord/internal/golden"
)

// goldenMaxBody is the body limit of the server the query-body corpus is
// served by: small, so the corpus can sit on either side of it.
const goldenMaxBody = 512

// namedBody is one query body of the corpus.
type namedBody struct {
	name string
	body []byte
}

// queryCorpus holds the query shapes the corpus is built from: each is
// served as POST /nearest's body and, twice over, inside a batch.
var queryCorpus = []namedBody{
	{"plain", []byte(`{"coord":{"vec":[12.5,-3.25,100],"height":0},"k":8}`)},
	{"no-height", []byte(`{"coord":{"vec":[1,2,3]},"k":2}`)},
	{"no-k", []byte(`{"coord":{"vec":[1,2,3]}}`)},
	{"reordered", []byte(`{"k":3,"coord":{"height":0.5,"vec":[1,2,3]}}`)},
	{"radius", []byte(`{"coord":{"vec":[0,0,0]},"radius_ms":20}`)},
	{"radius-zero", []byte(`{"coord":{"vec":[0,0,0]},"radius_ms":0,"k":4}`)},
	{"radius-negative", []byte(`{"coord":{"vec":[0,0,0]},"radius_ms":-1}`)},
	{"negative-zero", []byte(`{"coord":{"vec":[-0,-0.0,0e0],"height":-0},"k":-0}`)},
	{"exponents", []byte(`{"coord":{"vec":[1E+2,2.5e-3,-3e0],"height":1e-7},"k":1}`)},
	{"extremes", []byte(`{"coord":{"vec":[5e-324,2.2250738585072009e-308,1.7976931348623157e308]},"k":1}`)},
	{"underflow", []byte(`{"coord":{"vec":[1e-400,0,0]},"k":1}`)},
	{"long-digits", []byte(`{"coord":{"vec":[1.000000000000000000000000000000000000001,2,3]},"k":1}`)},
	{"empty-vec", []byte(`{"coord":{"vec":[]},"k":1}`)},
	{"short-vec", []byte(`{"coord":{"vec":[1,2]},"k":1}`)},
	{"negative-height", []byte(`{"coord":{"vec":[1,2,3],"height":-1},"k":1}`)},
	{"k-zero", []byte(`{"coord":{"vec":[1,2,3]},"k":0}`)},
	{"k-negative", []byte(`{"coord":{"vec":[1,2,3]},"k":-5}`)},
	{"k-too-big", []byte(`{"coord":{"vec":[1,2,3]},"k":1025}`)},
	{"k-max-int", []byte(`{"coord":{"vec":[1,2,3]},"k":9223372036854775807}`)},
	{"spaced", []byte(" \t\n\r{ \"coord\" :\n{ \"vec\" : [ 1 , 2 ,\t3 ] , \"height\" : 0.5 } ,\r\n\"k\" : 2 } \n")},

	// Everything below is outside the parser's subset and is answered
	// by encoding/json.
	{"case-folded-key", []byte(`{"COORD":{"vec":[1,2,3]},"k":2}`)},
	{"case-folded-inner", []byte(`{"coord":{"Vec":[1,2,3]},"K":2}`)},
	{"case-folded-last-wins", []byte(`{"coord":{"vec":[1,2,3]},"Coord":{"vec":[9,9,9]},"k":2}`)},
	{"duplicate-k", []byte(`{"coord":{"vec":[1,2,3]},"k":2,"k":3}`)},
	{"duplicate-vec", []byte(`{"coord":{"vec":[1,2,3],"vec":[4,5,6]},"k":2}`)},
	{"escaped-key", []byte(`{"co\u006frd":{"vec":[1,2,3]},"k":2}`)},
	{"escaped-inner-key", []byte(`{"coord":{"v\u0065c":[1,2,3]},"k":2}`)},
	{"unknown-key", []byte(`{"coord":{"vec":[1,2,3]},"k":2,"limit":3}`)},
	{"unknown-inner-key", []byte(`{"coord":{"vec":[1,2,3],"error":1},"k":2}`)},
	{"null-coord", []byte(`{"coord":null,"k":2}`)},
	{"null-vec", []byte(`{"coord":{"vec":null},"k":2}`)},
	{"null-k", []byte(`{"coord":{"vec":[1,2,3]},"k":null}`)},
	{"null-radius", []byte(`{"coord":{"vec":[1,2,3]},"radius_ms":null}`)},
	{"null-component", []byte(`{"coord":{"vec":[1,null,3]},"k":2}`)},
	{"missing-coord", []byte(`{"k":2}`)},
	{"missing-vec", []byte(`{"coord":{"height":1},"k":2}`)},
	{"empty-object", []byte(`{}`)},
	{"k-fraction", []byte(`{"coord":{"vec":[1,2,3]},"k":8.0}`)},
	{"k-exponent", []byte(`{"coord":{"vec":[1,2,3]},"k":1e1}`)},
	{"k-string", []byte(`{"coord":{"vec":[1,2,3]},"k":"8"}`)},
	{"k-overflow", []byte(`{"coord":{"vec":[1,2,3]},"k":99999999999999999999}`)},
	{"range-error", []byte(`{"coord":{"vec":[1e400,2,3]},"k":2}`)},
	{"range-error-negative", []byte(`{"coord":{"vec":[1,2,3]},"radius_ms":-1e400}`)},
	{"leading-zero", []byte(`{"coord":{"vec":[01,2,3]},"k":2}`)},
	{"leading-zero-k", []byte(`{"coord":{"vec":[1,2,3]},"k":08}`)},
	{"leading-dot", []byte(`{"coord":{"vec":[.5,2,3]},"k":2}`)},
	{"trailing-dot", []byte(`{"coord":{"vec":[1.,2,3]},"k":2}`)},
	{"plus-sign", []byte(`{"coord":{"vec":[+1,2,3]},"k":2}`)},
	{"bare-exponent", []byte(`{"coord":{"vec":[1e,2,3]},"k":2}`)},
	{"infinity", []byte(`{"coord":{"vec":[Infinity,2,3]},"k":2}`)},
	{"nan", []byte(`{"coord":{"vec":[NaN,2,3]},"k":2}`)},
	{"hex", []byte(`{"coord":{"vec":[0x10,2,3]},"k":2}`)},
	{"trailing-comma", []byte(`{"coord":{"vec":[1,2,3,]},"k":2}`)},
	{"missing-comma", []byte(`{"coord":{"vec":[1 2 3]},"k":2}`)},
	{"string-component", []byte(`{"coord":{"vec":["1",2,3]},"k":2}`)},
	{"truncated", []byte(`{"coord":{"vec":[1,2,3]},"k":`)},
	{"bom", []byte("\xef\xbb\xbf" + `{"coord":{"vec":[1,2,3]},"k":2}`)},
}

// goldenBodies is the corpus: every query shape as both bodies, the
// batch-only shapes, trailing bytes after a valid body, and bodies
// around the server's size limit.
func goldenBodies() []namedBody {
	var out []namedBody
	for _, q := range queryCorpus {
		out = append(out,
			namedBody{"nearest/" + q.name, q.body},
			namedBody{"batch/" + q.name, []byte(`{"queries":[` + string(q.body) + `,` + string(q.body) + `]}`)})
	}
	batch := `{"queries":[{"coord":{"vec":[1,2,3]},"k":2},{"coord":{"vec":[0,0,0]},"radius_ms":20}]}`
	for _, b := range []namedBody{
		{"batch/empty", []byte(`{"queries":[]}`)},
		{"batch/null", []byte(`{"queries":null}`)},
		{"batch/duplicate-queries", []byte(`{"queries":[],"queries":[{"coord":{"vec":[1,2,3]}}]}`)},
		{"batch/case-folded-queries", []byte(`{"Queries":[{"coord":{"vec":[1,2,3]}}]}`)},
		{"batch/not-an-array", []byte(`{"queries":{"coord":{"vec":[1,2,3]}}}`)},
		{"batch/bad-second-k", []byte(`{"queries":[{"coord":{"vec":[1,2,3]}},{"coord":{"vec":[1,2,3]},"k":2000}]}`)},
		{"batch/top-level-array", []byte(`[{"coord":{"vec":[1,2,3]}}]`)},
		{"batch/empty-body", nil},
		{"trailing/brackets", []byte(batch + `]]]`)},
		{"trailing/second-value", []byte(batch + `{"queries":[]}`)},
		{"trailing/garbage", []byte(batch + " x")},
		{"trailing/whitespace-only", []byte(batch + " \n\t\r ")},
	} {
		out = append(out, b)
	}
	out = append(out, namedBody{"nearest/trailing-second-value", []byte(string(queryCorpus[0].body) + string(queryCorpus[0].body))})
	// Padded with leading whitespace, so the value itself ends on the
	// body's last byte and the limit is what decides.
	for _, n := range []int{goldenMaxBody - 1, goldenMaxBody, goldenMaxBody + 1} {
		out = append(out, namedBody{fmt.Sprintf("size/%d", n), []byte(strings.Repeat(" ", n-len(batch)) + batch)})
	}
	return out
}

// goldenServer is the server the corpora are answered by: a few
// entries, the small body limit, and a change stream for /watch.
func goldenServer(t testing.TB) *Server {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	for i := 0; i < 12; i++ {
		c := netcoord.Coordinate{Vec: []float64{float64(i * 7 % 11), float64(i * 3 % 5), float64(i)}, Height: float64(i%3) / 4}
		if err := reg.Upsert(fmt.Sprintf("node-%02d", i), c, 0); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Config{Registry: reg, MaxBody: goldenMaxBody})
	t.Cleanup(srv.Stop)
	return srv
}

// serveBody sends body to the path of the golden body's endpoint.
func serveBody(h http.Handler, b namedBody) *httptest.ResponseRecorder {
	path := "/nearest"
	if !strings.HasPrefix(b.name, "nearest/") {
		path = "/nearest/batch"
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b.body)))
	return rec
}

// TestQueryBodiesGolden pins every corpus body's status and response
// bytes to testdata/query_bodies.golden. Regenerate with
// `go test ./internal/server -run TestQueryBodiesGolden -update` and
// review the diff: apart from the trailing cases, which are a 400, the
// file holds what encoding/json decoding of the bodies answered before
// the query-body parser.
func TestQueryBodiesGolden(t *testing.T) {
	srv := goldenServer(t)
	var got bytes.Buffer
	for _, b := range goldenBodies() {
		rec := serveBody(srv, b)
		fmt.Fprintf(&got, "### %s\n%d %s", b.name, rec.Code, rec.Body.Bytes())
	}
	golden.Check(t, filepath.Join("testdata", "query_bodies.golden"), got.Bytes())
}

// upsertCorpus holds the POST /upsert bodies of the corpus, each served
// to a fresh registry.
var upsertCorpus = []namedBody{
	{"single", []byte(`{"id":"n1","coord":{"vec":[12.5,-3.25,100],"height":0.5},"error":0.2}`)},
	{"single-no-error", []byte(`{"id":"n1","coord":{"vec":[1,2,3]}}`)},
	{"single-reordered", []byte(`{"error":0.75,"coord":{"height":1,"vec":[1,2,3]},"id":"n1"}`)},
	{"batch", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,2,3]},"error":0.1},{"id":"b","coord":{"vec":[4,5,6],"height":1}}]}`)},
	{"single-and-batch", []byte(`{"entries":[{"id":"b","coord":{"vec":[4,5,6]}}],"id":"a","coord":{"vec":[1,2,3]},"error":0.5}`)},
	{"single-and-batch-same-id", []byte(`{"id":"a","coord":{"vec":[1,1,1]},"entries":[{"id":"a","coord":{"vec":[2,2,2]}}]}`)},
	{"batch-repeated-id", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,1,1]}},{"id":"a","coord":{"vec":[2,2,2]},"error":1}]}`)},
	{"empty-id-with-batch", []byte(`{"id":"","coord":{"vec":[1,2,3]},"entries":[{"id":"b","coord":{"vec":[4,5,6]}}]}`)},
	{"empty-id-alone", []byte(`{"id":"","coord":{"vec":[1,2,3]}}`)},
	{"empty-id-no-coord", []byte(`{"id":"","entries":[{"id":"b","coord":{"vec":[4,5,6]}}]}`)},
	{"entry-empty-id", []byte(`{"entries":[{"id":"","coord":{"vec":[1,2,3]}}]}`)},
	{"entry-no-id", []byte(`{"entries":[{"coord":{"vec":[1,2,3]}}]}`)},
	{"coord-without-id", []byte(`{"coord":{"vec":[1,2,3]},"error":1,"entries":[{"id":"b","coord":{"vec":[4,5,6]}}]}`)},
	{"empty-entries", []byte(`{"entries":[]}`)},
	{"empty-object", []byte(`{}`)},
	{"printable-id", []byte(`{"id":" ~!#$%&'()*+,-./:;<=>?@[]^_{|}` + "`" + `","coord":{"vec":[1,2,3]}}`)},
	{"negative-zero", []byte(`{"id":"z","coord":{"vec":[-0,-0.0,0e0],"height":-0},"error":-0}`)},
	{"exponents", []byte(`{"id":"x","coord":{"vec":[1E+2,2.5e-3,-3e0],"height":1e-7},"error":5E-1}`)},
	{"extremes", []byte(`{"id":"x","coord":{"vec":[5e-324,2.2250738585072009e-308,1.7976931348623157e308]},"error":-1.7976931348623157e308}`)},
	{"underflow", []byte(`{"id":"x","coord":{"vec":[1e-400,0,0]},"error":-1e-400}`)},
	{"long-digits", []byte(`{"id":"x","coord":{"vec":[1.000000000000000000000000000000000000001,2,3]}}`)},
	{"empty-vec", []byte(`{"id":"e","coord":{"vec":[]}}`)},
	{"short-vec", []byte(`{"id":"s","coord":{"vec":[1,2]}}`)},
	{"negative-height", []byte(`{"id":"h","coord":{"vec":[1,2,3],"height":-1}}`)},
	{"bad-second-entry", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,2,3]}},{"id":"b","coord":{"vec":[1,2]}}]}`)},
	{"spaced", []byte(" \t\n\r{ \"entries\" : [ { \"id\" : \"a\" , \"coord\" :\n{ \"vec\" : [ 1 , 2 ,\t3 ] } , \"error\" : 0.5 } ] ,\r\n\"id\" : \"b\" , \"coord\" : { \"vec\" : [ 4 , 5 , 6 ] } } \n")},

	// Everything below is outside the parser's subset and is answered
	// by encoding/json.
	{"escaped-id", []byte(`{"id":"n\u0031","coord":{"vec":[1,2,3]}}`)},
	{"escaped-quote-id", []byte(`{"id":"a\"b","coord":{"vec":[1,2,3]}}`)},
	{"escaped-slash-id", []byte(`{"entries":[{"id":"a\/b","coord":{"vec":[1,2,3]}}]}`)},
	{"non-ascii-id", []byte(`{"id":"nœud","coord":{"vec":[1,2,3]}}`)},
	{"invalid-utf8-id", []byte("{\"id\":\"a\xffb\",\"coord\":{\"vec\":[1,2,3]}}")},
	{"control-byte-id", []byte("{\"id\":\"a\tb\",\"coord\":{\"vec\":[1,2,3]}}")},
	{"delete-byte-id", []byte("{\"id\":\"a\x7fb\",\"coord\":{\"vec\":[1,2,3]}}")},
	{"null-id", []byte(`{"id":null,"coord":{"vec":[1,2,3]}}`)},
	{"null-coord", []byte(`{"id":"a","coord":null}`)},
	{"null-vec", []byte(`{"id":"a","coord":{"vec":null}}`)},
	{"null-error", []byte(`{"id":"a","coord":{"vec":[1,2,3]},"error":null}`)},
	{"null-entries", []byte(`{"entries":null}`)},
	{"null-entry", []byte(`{"entries":[null]}`)},
	{"missing-coord", []byte(`{"id":"a"}`)},
	{"missing-coord-with-batch", []byte(`{"id":"a","entries":[{"id":"b","coord":{"vec":[4,5,6]}}]}`)},
	{"entry-missing-coord", []byte(`{"entries":[{"id":"a"}]}`)},
	{"entry-missing-coord-empty-id", []byte(`{"entries":[{"id":"","error":1}]}`)},
	{"missing-vec", []byte(`{"id":"a","coord":{"height":1}}`)},
	{"case-folded-key", []byte(`{"ID":"a","coord":{"vec":[1,2,3]}}`)},
	{"case-folded-entries", []byte(`{"Entries":[{"id":"a","coord":{"vec":[1,2,3]}}]}`)},
	{"case-folded-inner", []byte(`{"id":"a","coord":{"VEC":[1,2,3]}}`)},
	{"case-folded-last-wins", []byte(`{"id":"a","coord":{"vec":[1,2,3]},"Id":"b"}`)},
	{"duplicate-id", []byte(`{"id":"a","id":"b","coord":{"vec":[1,2,3]}}`)},
	{"duplicate-entries", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,2,3]}}],"entries":[]}`)},
	{"duplicate-entry-coord", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,2,3]},"coord":{"vec":[4,5,6]}}]}`)},
	{"duplicate-entry-error", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,2,3]},"error":1,"error":2}]}`)},
	{"escaped-key", []byte(`{"\u0069d":"a","coord":{"vec":[1,2,3]}}`)},
	{"unknown-key", []byte(`{"id":"a","coord":{"vec":[1,2,3]},"ttl":5}`)},
	{"unknown-entry-key", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,2,3]},"height":1}]}`)},
	{"unknown-coord-key", []byte(`{"id":"a","coord":{"vec":[1,2,3],"error":1}}`)},
	{"number-id", []byte(`{"id":5,"coord":{"vec":[1,2,3]}}`)},
	{"string-error", []byte(`{"id":"a","coord":{"vec":[1,2,3]},"error":"0.5"}`)},
	{"range-error", []byte(`{"id":"a","coord":{"vec":[1e400,2,3]}}`)},
	{"range-error-weight", []byte(`{"id":"a","coord":{"vec":[1,2,3]},"error":-1e400}`)},
	{"leading-zero", []byte(`{"id":"a","coord":{"vec":[01,2,3]}}`)},
	{"plus-sign", []byte(`{"id":"a","coord":{"vec":[1,2,3]},"error":+1}`)},
	{"entries-not-array", []byte(`{"entries":{"id":"a","coord":{"vec":[1,2,3]}}}`)},
	{"entry-not-object", []byte(`{"entries":["a"]}`)},
	{"trailing-comma", []byte(`{"entries":[{"id":"a","coord":{"vec":[1,2,3]}},]}`)},
	{"top-level-array", []byte(`[{"id":"a","coord":{"vec":[1,2,3]}}]`)},
	{"unterminated-id", []byte(`{"id":"a`)},
	{"truncated", []byte(`{"id":"a","coord":{"vec":[1,2`)},
	{"bom", []byte("\xef\xbb\xbf" + `{"id":"a","coord":{"vec":[1,2,3]}}`)},
}

// upsertBodies is the upsert corpus: every shape, bytes after a valid
// body, and bodies around the server's size limit.
func upsertBodies() []namedBody {
	out := append([]namedBody(nil), upsertCorpus...)
	single := `{"id":"a","coord":{"vec":[1,2,3]}}`
	batch := `{"entries":[{"id":"a","coord":{"vec":[1,2,3]}},{"id":"b","coord":{"vec":[4,5,6]}}]}`
	for _, b := range []namedBody{
		{"trailing/second-value", []byte(single + `{"id":"b","coord":{"vec":[4,5,6]}}`)},
		{"trailing/brackets", []byte(batch + `]]`)},
		{"trailing/garbage", []byte(single + " x")},
		{"trailing/whitespace-only", []byte(batch + " \n\t\r ")},
		{"empty-body", nil},
	} {
		out = append(out, b)
	}
	// Padded with leading whitespace, so the value itself ends on the
	// body's last byte and the limit is what decides.
	for _, n := range []int{goldenMaxBody - 1, goldenMaxBody, goldenMaxBody + 1} {
		out = append(out, namedBody{fmt.Sprintf("size/%d", n), []byte(strings.Repeat(" ", n-len(batch)) + batch)})
	}
	return out
}

// upsertServer is a fresh server for one upsert body: an empty registry
// with the change stream on, a clock that stands still, and the
// corpus's small body limit.
func upsertServer(t testing.TB) (*Server, *netcoord.Registry) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{
		ChangeStreamBuffer: 64,
		Clock:              func() time.Time { return time.Unix(1_700_000_000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	srv := New(Config{Registry: reg, MaxBody: goldenMaxBody})
	t.Cleanup(srv.Stop)
	return srv, reg
}

// serveUpsert posts body to /upsert.
func serveUpsert(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/upsert", bytes.NewReader(body)))
	return rec
}

// TestUpsertBodiesGolden pins, for every upsert corpus body served to a
// fresh registry, the status and response bytes and then the
// registry's /snapshot to testdata/upsert_bodies.golden. Regenerate
// with `go test ./internal/server -run TestUpsertBodiesGolden -update`
// and review the diff: the file holds what encoding/json decoding of
// the bodies answered before the parser read them.
func TestUpsertBodiesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, b := range upsertBodies() {
		srv, _ := upsertServer(t)
		rec := serveUpsert(srv, b.body)
		snap := httptest.NewRecorder()
		srv.ServeHTTP(snap, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
		fmt.Fprintf(&got, "### %s\n%d %s%d %s", b.name, rec.Code, rec.Body.Bytes(), snap.Code, snap.Body.Bytes())
	}
	golden.Check(t, filepath.Join("testdata", "upsert_bodies.golden"), got.Bytes())
}
