package server

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"netcoord"
	"netcoord/internal/golden"
)

// pubNs is the one field of these bodies that is wall-clock time.
var pubNs = regexp.MustCompile(`"pub_ns":\d+`)

// TestGoldenJSONBodies pins the JSON renderings of /changes and
// /snapshot (full and delta) byte for byte: field names, field order,
// omitted-when-empty rules, number formats, string escaping. They are
// produced by encoding/json through wire.Event's and wire.Entry's
// MarshalJSON; humans, scripts and ncload read them, and nothing in the
// stack parses them back, so only these files notice a drift.
// Regenerate with `go test ./internal/server -run TestGoldenJSONBodies
// -update` and review the diff.
func TestGoldenJSONBodies(t *testing.T) {
	var tick atomic.Int64
	clock := func() time.Time {
		return time.Unix(1_700_000_000, 0).Add(time.Duration(tick.Add(1)) * time.Millisecond)
	}
	ts, reg := newTestServiceReg(t, netcoord.RegistryConfig{ChangeStreamBuffer: 64, Clock: clock, TTL: time.Hour})
	for _, body := range []string{
		`{"id":"a","coord":{"vec":[1.5,-2.25,0.001]},"error":0.25}`,
		`{"id":"b","coord":{"vec":[1e21,1e-7,3],"height":0.5}}`,
		`{"id":"quote\"<&>\u2028ü","coord":{"vec":[0,0,0]},"error":1}`,
		`{"entries":[{"id":"c","coord":{"vec":[7,8,9]}},{"id":"d","coord":{"vec":[-1,-2,-3],"height":2}}]}`,
		`{"id":"a","coord":{"vec":[4,5,6]},"error":0.125}`,
	} {
		if code, out := postJSON(t, ts.URL+"/upsert", body); code != http.StatusOK {
			t.Fatalf("upsert %s: %d %v", body, code, out)
		}
	}
	mark := reg.ChangeSeq()
	postJSON(t, ts.URL+"/remove", `{"id":"b"}`)
	postJSON(t, ts.URL+"/upsert", `{"id":"e","coord":{"vec":[10,11,12]}}`)
	// A TTL sweep for the evict shape: one id ages out (a sweep of
	// several lists them in map order), the rest heartbeat in time.
	tick.Add(int64(2 * time.Hour / time.Millisecond))
	postJSON(t, ts.URL+"/upsert", `{"entries":[{"id":"a","coord":{"vec":[4,5,6]},"error":0.125},{"id":"c","coord":{"vec":[7,8,9]}},{"id":"d","coord":{"vec":[-1,-2,-3],"height":2}}]}`)
	postJSON(t, ts.URL+"/upsert", `{"id":"e","coord":{"vec":[10,11,12]}}`)
	postJSON(t, ts.URL+"/upsert", `{"id":"f","coord":{"vec":[0.1,0.2,0.3]},"error":0.75}`)
	if n := reg.EvictStale(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	for name, path := range map[string]string{
		"changes.golden.json":        "/changes?since=0&limit=64",
		"changes_empty.golden.json":  fmt.Sprintf("/changes?since=%d", reg.ChangeSeq()),
		"snapshot_full.golden.json":  "/snapshot",
		"snapshot_delta.golden.json": fmt.Sprintf("/snapshot?since=%d", mark),
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q, err %v", path, resp.StatusCode, resp.Header.Get("Content-Type"), err)
		}
		if name == "changes.golden.json" && !pubNs.Match(got) {
			t.Fatalf("%s: events carry no pub_ns: %s", path, got)
		}
		got = pubNs.ReplaceAll(got, []byte(`"pub_ns":1700000000000000000`))
		golden.Check(t, filepath.Join("testdata", name), got)
	}
}
