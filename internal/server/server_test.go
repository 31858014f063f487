package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"netcoord"
)

func newTestService(t *testing.T) *httptest.Server {
	ts, _ := newTestServiceReg(t, netcoord.RegistryConfig{})
	return ts
}

// newTestServiceReg serves a leader with an explicit registry config —
// tests that need a tiny change ring (truncation paths) pass their own.
func newTestServiceReg(t *testing.T, cfg netcoord.RegistryConfig) (*httptest.Server, *netcoord.Registry) {
	t.Helper()
	reg, err := netcoord.NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	srv := New(Config{Registry: reg})
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, reg
}

// newFollowerService serves a follower through the same stack.
func newFollowerService(t *testing.T, f *netcoord.FollowerRegistry) *httptest.Server {
	t.Helper()
	srv := New(Config{Registry: f.Registry, Follower: f})
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// results unpacks the {"results": [...]} envelope into id order.
func resultIDs(t *testing.T, out map[string]any) []string {
	t.Helper()
	raw, ok := out["results"].([]any)
	if !ok {
		t.Fatalf("no results in %v", out)
	}
	ids := make([]string, len(raw))
	for i, r := range raw {
		ids[i] = r.(map[string]any)["id"].(string)
	}
	return ids
}

func TestServiceEndToEnd(t *testing.T) {
	ts := newTestService(t)

	// Single upsert plus a batch.
	code, out := postJSON(t, ts.URL+"/upsert", `{"id":"a","coord":{"vec":[0,0,0]},"error":0.2}`)
	if code != http.StatusOK || out["applied"].(float64) != 1 {
		t.Fatalf("upsert: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/upsert", `{"entries":[
		{"id":"b","coord":{"vec":[30,0,0]}},
		{"id":"c","coord":{"vec":[0,40,0]}},
		{"id":"d","coord":{"vec":[100,100,0]}}]}`)
	if code != http.StatusOK || out["applied"].(float64) != 3 || out["entries"].(float64) != 4 {
		t.Fatalf("batch upsert: %d %v", code, out)
	}

	// Coordinate-centered nearest.
	code, out = postJSON(t, ts.URL+"/nearest", `{"coord":{"vec":[1,0,0]},"k":2}`)
	if code != http.StatusOK {
		t.Fatalf("nearest: %d %v", code, out)
	}
	if ids := resultIDs(t, out); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("nearest ids = %v, want [a b]", ids)
	}

	// Node-centered nearest excludes the center.
	code, out = getJSON(t, ts.URL+"/nearest?id=a&k=2")
	if code != http.StatusOK {
		t.Fatalf("nearest?id: %d %v", code, out)
	}
	if ids := resultIDs(t, out); len(ids) != 2 || ids[0] != "b" || ids[1] != "c" {
		t.Fatalf("nearest?id=a ids = %v, want [b c]", ids)
	}

	// Radius mode excludes the center node, like k-mode.
	code, out = getJSON(t, ts.URL+"/nearest?id=a&radius_ms=50")
	if code != http.StatusOK {
		t.Fatalf("radius: %d %v", code, out)
	}
	if ids := resultIDs(t, out); len(ids) != 2 || ids[0] != "b" || ids[1] != "c" {
		t.Fatalf("radius ids = %v, want [b c]", ids)
	}

	// Estimate.
	code, out = getJSON(t, ts.URL+"/estimate?a=a&b=b")
	if code != http.StatusOK || out["rtt_ms"].(float64) != 30 {
		t.Fatalf("estimate: %d %v", code, out)
	}

	// Remove, then the estimate 404s.
	code, out = postJSON(t, ts.URL+"/remove", `{"id":"b"}`)
	if code != http.StatusOK || out["removed"].(bool) != true {
		t.Fatalf("remove: %d %v", code, out)
	}
	code, _ = getJSON(t, ts.URL+"/estimate?a=a&b=b")
	if code != http.StatusNotFound {
		t.Fatalf("estimate after remove: %d, want 404", code)
	}

	// Stats reflect the traffic.
	code, out = getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	regStats, ok := out["registry"].(map[string]any)
	if !ok || regStats["entries"].(float64) != 3 {
		t.Fatalf("stats = %v", out)
	}
	// One tree: its shape is reported, and there is no stripe count.
	if h, ok := regStats["index_height"].(float64); !ok || h < 1 {
		t.Fatalf("stats registry.index_height = %v, want the tree's height", regStats["index_height"])
	}
	for _, key := range []string{"index_tombstones", "index_rebuilds"} {
		if _, ok := regStats[key]; !ok {
			t.Fatalf("stats registry lacks %q: %v", key, regStats)
		}
	}
	if _, ok := regStats["shards"]; ok {
		t.Fatalf("stats registry still reports shards: %v", regStats)
	}
}

func TestServiceErrors(t *testing.T) {
	ts := newTestService(t)

	for _, tc := range []struct {
		name string
		do   func() int
		want int
	}{
		{"bad json", func() int {
			code, _ := postJSON(t, ts.URL+"/upsert", `{`)
			return code
		}, http.StatusBadRequest},
		{"unknown field", func() int {
			code, _ := postJSON(t, ts.URL+"/upsert", `{"id":"x","coord":{"vec":[0,0,0]},"bogus":1}`)
			return code
		}, http.StatusBadRequest},
		{"wrong dimension", func() int {
			code, _ := postJSON(t, ts.URL+"/upsert", `{"id":"x","coord":{"vec":[0,0]}}`)
			return code
		}, http.StatusBadRequest},
		{"empty upsert", func() int {
			code, _ := postJSON(t, ts.URL+"/upsert", `{}`)
			return code
		}, http.StatusBadRequest},
		{"nearest unknown id", func() int {
			code, _ := getJSON(t, ts.URL+"/nearest?id=ghost")
			return code
		}, http.StatusNotFound},
		{"nearest no id", func() int {
			code, _ := getJSON(t, ts.URL+"/nearest")
			return code
		}, http.StatusBadRequest},
		{"nearest bad k", func() int {
			seedOne(t, ts)
			code, _ := getJSON(t, ts.URL+"/nearest?id=seed&k=0")
			return code
		}, http.StatusBadRequest},
		{"nearest huge k", func() int {
			code, _ := getJSON(t, ts.URL+"/nearest?id=seed&k=99999")
			return code
		}, http.StatusBadRequest},
		{"post nearest huge k", func() int {
			code, _ := postJSON(t, ts.URL+"/nearest", `{"coord":{"vec":[0,0,0]},"k":1000000000}`)
			return code
		}, http.StatusBadRequest},
		{"post nearest negative k", func() int {
			code, _ := postJSON(t, ts.URL+"/nearest", `{"coord":{"vec":[0,0,0]},"k":-1}`)
			return code
		}, http.StatusBadRequest},
		{"estimate missing param", func() int {
			code, _ := getJSON(t, ts.URL+"/estimate?a=x")
			return code
		}, http.StatusBadRequest},
		{"remove no id", func() int {
			code, _ := postJSON(t, ts.URL+"/remove", `{}`)
			return code
		}, http.StatusBadRequest},
	} {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestNearestBatchEndpoint checks POST /nearest/batch against the
// single-query endpoints: positional answers, per-query modes (k,
// default-k, radius with truncation flag), and atomic validation.
func TestNearestBatchEndpoint(t *testing.T) {
	ts := newTestService(t)

	var entries []string
	for i := 0; i < 40; i++ {
		entries = append(entries, fmt.Sprintf(
			`{"id":"n%02d","coord":{"vec":[%d,%d,0]}}`, i, (i%8)*25, (i/8)*25))
	}
	code, out := postJSON(t, ts.URL+"/upsert", `{"entries":[`+strings.Join(entries, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("seed: %d %v", code, out)
	}

	code, out = postJSON(t, ts.URL+"/nearest/batch", `{"queries":[
		{"coord":{"vec":[1,1,0]},"k":3},
		{"coord":{"vec":[180,90,0]}},
		{"coord":{"vec":[50,50,0]},"radius_ms":40}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, out)
	}
	raw, ok := out["results"].([]any)
	if !ok || len(raw) != 3 {
		t.Fatalf("want 3 positional results, got %v", out)
	}

	// Each position must match its single-query equivalent.
	single := []string{
		`{"coord":{"vec":[1,1,0]},"k":3}`,
		`{"coord":{"vec":[180,90,0]}}`,
		`{"coord":{"vec":[50,50,0]},"radius_ms":40}`,
	}
	for i, body := range single {
		sc, sout := postJSON(t, ts.URL+"/nearest", body)
		if sc != http.StatusOK {
			t.Fatalf("single %d: %d %v", i, sc, sout)
		}
		want := resultIDs(t, sout)
		got := resultIDs(t, raw[i].(map[string]any))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: batch %v != single %v", i, got, want)
		}
		if i == 2 {
			// Small radius over 40 nodes: present but not truncated.
			if tr, _ := raw[i].(map[string]any)["truncated"].(bool); tr {
				t.Fatalf("query %d unexpectedly truncated", i)
			}
		}
	}

	// Atomic validation: a bad k in the middle fails the whole batch.
	code, out = postJSON(t, ts.URL+"/nearest/batch", `{"queries":[
		{"coord":{"vec":[1,1,0]},"k":3},
		{"coord":{"vec":[1,1,0]},"k":-2}]}`)
	if code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "query 1") {
		t.Fatalf("bad k: %d %v", code, out)
	}
	// A dimension mismatch is caught registry-side, same atomicity.
	code, out = postJSON(t, ts.URL+"/nearest/batch", `{"queries":[
		{"coord":{"vec":[1,1,0]},"k":3},
		{"coord":{"vec":[1,1]},"k":3}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad dim: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/nearest/batch", `{"queries":[]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %v", code, out)
	}
	big := make([]string, maxBatchQueries+1)
	for i := range big {
		big[i] = `{"coord":{"vec":[1,1,0]},"k":1}`
	}
	code, out = postJSON(t, ts.URL+"/nearest/batch", `{"queries":[`+strings.Join(big, ",")+`]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d %v", code, out)
	}
}

func seedOne(t *testing.T, ts *httptest.Server) {
	t.Helper()
	code, _ := postJSON(t, ts.URL+"/upsert", `{"id":"seed","coord":{"vec":[0,0,0]}}`)
	if code != http.StatusOK {
		t.Fatalf("seed upsert failed: %d", code)
	}
}

// TestServiceBodyLimit: a body over the configured cap is rejected, not
// buffered.
func TestServiceBodyLimit(t *testing.T) {
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := New(Config{Registry: reg, MaxBody: 64})
	defer srv.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var big bytes.Buffer
	big.WriteString(`{"entries":[`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, `{"id":"n%d","coord":{"vec":[1,2,3]}}`, i)
	}
	big.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/upsert", "application/json", &big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

// TestUnknownIDIsOne404: every read centered on an id the registry does
// not hold — GET /nearest in k-mode and radius mode, and /watch — answers
// 404 with the one body netcoord.ErrUnknownID renders.
func TestUnknownIDIsOne404(t *testing.T) {
	srv := goldenServer(t)
	want := fmt.Sprintf("{\"error\":%q}\n", fmt.Errorf("%w %q", netcoord.ErrUnknownID, "x").Error())
	for _, path := range []string{"/nearest?id=x&k=3", "/nearest?id=x&radius_ms=5", "/watch?id=x"} {
		rec := serveGet(srv, path)
		if rec.Code != http.StatusNotFound || rec.Body.String() != want {
			t.Errorf("GET %s: %d %s, want 404 %s", path, rec.Code, rec.Body, want)
		}
	}
}
