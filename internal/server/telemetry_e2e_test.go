package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"netcoord"
)

// scrapeMetrics fetches /metrics and parses every sample line into a
// map keyed by the full series text (name plus label block), e.g.
// "netcoord_http_requests_total{class=\"2xx\",route=\"/upsert\"}".
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// getHealthz returns /healthz's status code.
func getHealthz(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPropagationLagEndToEnd drives the full pipeline — leader
// mutation → follower apply → watcher delivery — and then reads the
// propagation-lag histograms out of /metrics: the follower must report
// nonzero publish→apply lag with ordered, sane percentiles, and the
// follower's watch hub must report publish→deliver lag for the watcher
// it served. This is the observability contract for the relay tree:
// every tier can prove how far behind the origin it is running.
func TestPropagationLagEndToEnd(t *testing.T) {
	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})
	postJSON(t, leaderTS.URL+"/upsert", `{"entries":[
		{"id":"a","coord":{"vec":[1,0,0]}},
		{"id":"b","coord":{"vec":[2,0,0]}},
		{"id":"far","coord":{"vec":[500,0,0]}}]}`)

	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leaderReg)
	fts := newFollowerService(t, f)

	// A watcher on the FOLLOWER: deliver lag there measures the whole
	// chain, leader publish stamp included.
	fr, _ := openWatch(t, fts.URL, "vec=0,0,0&k=2")

	// Each step flips the top-2 (c at rank 1, then c gone far away), so
	// every step must produce a delta — and a deliver-lag observation.
	const steps = 10
	for i := 0; i < steps; i++ {
		coord := "0.5"
		if i%2 == 1 {
			coord = "300"
		}
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"c","coord":{"vec":[%s,0,0]}}`, coord))
		if ev, ok := fr.next(5 * time.Second); !ok || ev.name != "delta" {
			t.Fatalf("step %d: watch event %+v ok=%v, want delta", i, ev, ok)
		}
	}
	waitConverged(t, f, leaderReg)
	// The follower publishes an event before it observes the event's
	// lag, so convergence can run one observation ahead of the
	// histogram: wait for the count itself.
	for deadline := time.Now().Add(10 * time.Second); f.FollowerStats().ApplyLagNs.Count < steps; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("apply lag count stuck at %d, want >= %d", f.FollowerStats().ApplyLagNs.Count, steps)
		}
	}

	fm := scrapeMetrics(t, fts.URL)

	// Publish→apply lag on the follower: the seeds arrived via snapshot
	// bootstrap (unstamped), but every streamed step was stamped at the
	// leader and must have been observed on apply.
	applyCount := fm["netcoord_follower_apply_lag_seconds_count"]
	if applyCount < steps {
		t.Fatalf("apply lag count = %v, want >= %d", applyCount, steps)
	}
	if sum := fm["netcoord_follower_apply_lag_seconds_sum"]; sum <= 0 {
		t.Fatalf("apply lag sum = %v, want > 0 (publish stamps not propagating?)", sum)
	}
	p50 := fm[`netcoord_follower_apply_lag_seconds{quantile="0.5"}`]
	p99 := fm[`netcoord_follower_apply_lag_seconds{quantile="0.99"}`]
	max := fm[`netcoord_follower_apply_lag_seconds{quantile="1"}`]
	if !(p50 <= p99 && p99 <= max) {
		t.Fatalf("apply lag percentiles out of order: p50=%v p99=%v max=%v", p50, p99, max)
	}
	if max <= 0 || max > 60 {
		t.Fatalf("apply lag max = %vs, want (0, 60] — in-process propagation should be fast but measurable", max)
	}

	// Publish→deliver lag at the follower's watch hub: every forced
	// delta was delivered carrying the leader's publish stamp.
	deliverCount := fm["netcoord_watch_deliver_lag_seconds_count"]
	if deliverCount < steps {
		t.Fatalf("deliver lag count = %v, want >= %d", deliverCount, steps)
	}
	dmax := fm[`netcoord_watch_deliver_lag_seconds{quantile="1"}`]
	if dmax <= 0 || dmax > 60 {
		t.Fatalf("deliver lag max = %vs, want (0, 60]", dmax)
	}

	// The follower's replication gauges agree with convergence.
	if fm["netcoord_follower_lag_events"] != 0 {
		t.Fatalf("converged follower lag_events = %v, want 0", fm["netcoord_follower_lag_events"])
	}
	if fm["netcoord_follower_applied_seq"] != float64(leaderReg.ChangeSeq()) {
		t.Fatalf("follower applied_seq = %v, leader at %d", fm["netcoord_follower_applied_seq"], leaderReg.ChangeSeq())
	}

	// The leader's own serving metrics saw the mutations.
	lm := scrapeMetrics(t, leaderTS.URL)
	if got := lm[`netcoord_http_requests_total{class="2xx",route="/upsert"}`]; got < steps+1 {
		t.Fatalf("leader /upsert 2xx count = %v, want >= %d", got, steps+1)
	}
	if got := lm["netcoord_changefeed_published_total"]; got < steps+3 {
		t.Fatalf("leader published_total = %v, want >= %d", got, steps+3)
	}
	if lm["netcoord_registry_entries"] != 4 {
		t.Fatalf("leader registry_entries = %v, want 4", lm["netcoord_registry_entries"])
	}

	// Both tiers are ready.
	if code := getHealthz(t, leaderTS.URL); code != http.StatusOK {
		t.Fatalf("leader /healthz = %d, want 200", code)
	}
	if code := getHealthz(t, fts.URL); code != http.StatusOK {
		t.Fatalf("converged follower /healthz = %d, want 200", code)
	}
}

// TestHTTPMetricsMiddleware checks the status-class accounting the
// instrument wrapper performs, and that latency/byte instruments fill
// in for real traffic.
func TestHTTPMetricsMiddleware(t *testing.T) {
	ts, _ := newTestServiceReg(t, netcoord.RegistryConfig{})
	if code, _ := postJSON(t, ts.URL+"/upsert", `{"id":"a","coord":{"vec":[1,0,0]}}`); code != http.StatusOK {
		t.Fatalf("upsert: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/upsert", `{"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("bad upsert: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/estimate?a=nope&b=also"); code != http.StatusNotFound {
		t.Fatalf("estimate on missing ids: %d, want 404", code)
	}

	m := scrapeMetrics(t, ts.URL)
	checks := []struct {
		series string
		want   float64
	}{
		{`netcoord_http_requests_total{class="2xx",route="/upsert"}`, 1},
		{`netcoord_http_requests_total{class="4xx",route="/upsert"}`, 1},
		{`netcoord_http_requests_total{class="4xx",route="/estimate"}`, 1},
		{`netcoord_http_request_seconds_count{route="/upsert"}`, 2},
	}
	for _, c := range checks {
		if got := m[c.series]; got != c.want {
			t.Errorf("%s = %v, want %v", c.series, got, c.want)
		}
	}
	if in := m[`netcoord_http_request_bytes_total{route="/upsert"}`]; in <= 0 {
		t.Errorf("request bytes for /upsert = %v, want > 0", in)
	}
	if out := m[`netcoord_http_response_bytes_total{route="/upsert"}`]; out <= 0 {
		t.Errorf("response bytes for /upsert = %v, want > 0", out)
	}
	// The scrape itself runs inside the only inflight request.
	if infl := m["netcoord_http_inflight_requests"]; infl != 0 {
		// /metrics is not routed through instrument, so nothing inflight.
		t.Errorf("inflight = %v, want 0", infl)
	}
}
