package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netcoord"
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

// goldenServer is the server the corpus is answered by: a few entries,
// and the small body limit.
func goldenServer(t testing.TB) *Server {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
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
	file := filepath.Join("testdata", "query_bodies.golden")
	if *updateGolden {
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s drifted at line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, want %d", file, len(gl), len(wl))
	}
}
