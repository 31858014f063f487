package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// postJSON and getJSON drive a running ncserve over HTTP; the
// httptest-level equivalents live with the handlers in internal/server.
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

// ncserveProc is one running ncserve binary under test.
type ncserveProc struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	debug string // http://host:port of -debug-addr, when enabled
}

// startNCServe launches the built binary and waits for its listen line.
func startNCServe(t *testing.T, bin string, args ...string) *ncserveProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start ncserve: %v", err)
	}
	lines := bufio.NewScanner(stdout)
	var base, debug string
	for lines.Scan() {
		line := lines.Text()
		// The debug line (when -debug-addr is on) prints before the
		// main listen line, so both are available once the loop breaks.
		if i := strings.Index(line, "debug endpoints (pprof, expvar) on http://"); i >= 0 {
			debug = "http://" + strings.Fields(line[i+len("debug endpoints (pprof, expvar) on http://"):])[0]
		}
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			base = "http://" + strings.Fields(line[i+len("listening on http://"):])[0]
			break
		}
	}
	if base == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("ncserve never reported its listen address (scan err %v)", lines.Err())
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	go func() {
		for lines.Scan() {
		}
	}()
	p := &ncserveProc{cmd: cmd, base: base, debug: debug}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
	})
	return p
}

// terminate sends SIGTERM (the graceful-shutdown path that flushes the
// WAL) and waits for a clean exit.
func (p *ncserveProc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ncserve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatal("ncserve did not exit within 15s of SIGTERM")
	}
}

// statsEntries fetches /stats and returns registry.entries and
// registry.evictions.
func statsEntries(t *testing.T, base string) (entries, evictions float64) {
	t.Helper()
	_, body := getJSON(t, base+"/stats")
	reg, ok := body["registry"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing registry section: %v", body)
	}
	entries, _ = reg["entries"].(float64)
	evictions, _ = reg["evictions"].(float64)
	return entries, evictions
}

func TestRestartWarmE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ncserve binary")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "ncserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(scratch, "data")

	// First life: populate, then die gracefully.
	const n = 25
	p1 := startNCServe(t, bin, "-data-dir", dataDir)
	for i := 0; i < n; i++ {
		status, body := postJSON(t, p1.base+"/upsert",
			fmt.Sprintf(`{"id":"n%02d","coord":{"vec":[%d,0,0]},"error":0.1}`, i, i))
		if status != http.StatusOK {
			t.Fatalf("upsert: %d %v", status, body)
		}
	}
	if status, _ := postJSON(t, p1.base+"/remove", `{"id":"n00"}`); status != http.StatusOK {
		t.Fatalf("remove: %d", status)
	}
	if entries, _ := statsEntries(t, p1.base); entries != n-1 {
		t.Fatalf("pre-restart entries = %v, want %d", entries, n-1)
	}
	p1.terminate(t)

	// Second life: warm restart with every entry intact.
	p2 := startNCServe(t, bin, "-data-dir", dataDir)
	entries, _ := statsEntries(t, p2.base)
	if entries != n-1 {
		t.Fatalf("post-restart entries = %v, want %d (restart came back cold)", entries, n-1)
	}
	_, body := getJSON(t, p2.base+"/stats")
	pers, ok := body["persistence"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing persistence section: %v", body)
	}
	rec, _ := pers["recovery"].(map[string]any)
	if got, _ := rec["entries"].(float64); got != n-1 {
		t.Fatalf("recovery.entries = %v, want %d", got, n-1)
	}
	// Queries serve recovered coordinates immediately.
	status, est := getJSON(t, p2.base+"/estimate?a=n01&b=n11")
	if status != http.StatusOK {
		t.Fatalf("estimate on recovered registry: %d %v", status, est)
	}
	if rtt, _ := est["rtt_ms"].(float64); rtt != 10 {
		t.Fatalf("recovered estimate = %v ms, want 10 (coordinates corrupted?)", rtt)
	}
	// The removed entry stayed removed.
	if status, _ := getJSON(t, p2.base+"/estimate?a=n00&b=n01"); status != http.StatusNotFound {
		t.Fatalf("removed entry resurrected by restart (status %d)", status)
	}
	p2.terminate(t)

	// Third life: a TTL shorter than the downtime evicts the recovered
	// entries on the first janitor sweep, because UpdatedAt survived the
	// restarts — recovered entries do not get a fresh lease.
	time.Sleep(600 * time.Millisecond)
	p3 := startNCServe(t, bin, "-data-dir", dataDir, "-ttl", "500ms")
	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, evictions := statsEntries(t, p3.base)
		if entries == 0 && evictions == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale recovered entries not TTL-evicted: entries=%v evictions=%v", entries, evictions)
		}
		time.Sleep(50 * time.Millisecond)
	}
	p3.terminate(t)
}

// kill hard-stops the process (the crash path: no graceful flush, no
// goodbye to the leader).
func (p *ncserveProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_, _ = p.cmd.Process.Wait()
}

// fetchSnapshot grabs a /snapshot body: the stream seq and the entries
// keyed by id (coord vector flattened to its JSON form for comparison).
func fetchSnapshot(t *testing.T, base string) (float64, map[string]any) {
	t.Helper()
	status, body := getJSON(t, base+"/snapshot")
	if status != http.StatusOK {
		t.Fatalf("/snapshot: %d %v", status, body)
	}
	seq, _ := body["seq"].(float64)
	entries := make(map[string]any)
	for _, raw := range body["entries"].([]any) {
		e := raw.(map[string]any)
		entries[e["id"].(string)] = e
	}
	return seq, entries
}

// waitFollowerConverged polls the follower's /stats until applied_seq
// reaches wantSeq with zero lag.
func waitFollowerConverged(t *testing.T, base string, wantSeq float64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, body := getJSON(t, base+"/stats")
		if f, ok := body["follower"].(map[string]any); ok {
			if applied, _ := f["applied_seq"].(float64); applied >= wantSeq {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged to seq %v: %v", wantSeq, body["follower"])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestFollowerCatchupE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ncserve binary")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "ncserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A persistent leader. Its WAL is for recovery; its /changes history
	// is its ring, as at every tier.
	leader := startNCServe(t, bin, "-data-dir", filepath.Join(scratch, "leader-data"))
	const n = 40
	for i := 0; i < n; i++ {
		status, body := postJSON(t, leader.base+"/upsert",
			fmt.Sprintf(`{"id":"n%02d","coord":{"vec":[%d,%d,0]},"error":0.2}`, i, i, (i*7)%23))
		if status != http.StatusOK {
			t.Fatalf("upsert: %d %v", status, body)
		}
	}

	// Follower bootstraps from the live, still-mutating leader.
	follower := startNCServe(t, bin, "-upstreams", leader.base)
	leaderSeq, leaderEntries := fetchSnapshot(t, leader.base)
	waitFollowerConverged(t, follower.base, leaderSeq)
	_, followerEntries := fetchSnapshot(t, follower.base)
	if len(followerEntries) != len(leaderEntries) {
		t.Fatalf("follower has %d entries, leader %d", len(followerEntries), len(leaderEntries))
	}

	// Kill the follower (hard), mutate the leader meanwhile, restart
	// the follower, and require bit-identical convergence.
	follower.kill(t)
	for i := 0; i < 15; i++ {
		postJSON(t, leader.base+"/upsert",
			fmt.Sprintf(`{"id":"m%02d","coord":{"vec":[%d,0,%d]}}`, i, i*2, i))
	}
	postJSON(t, leader.base+"/remove", `{"id":"n00"}`)
	postJSON(t, leader.base+"/remove", `{"id":"n13"}`)

	follower2 := startNCServe(t, bin, "-upstreams", leader.base, "-debug-addr", "127.0.0.1:0")
	leaderSeq, leaderEntries = fetchSnapshot(t, leader.base)
	waitFollowerConverged(t, follower2.base, leaderSeq)
	_, followerEntries = fetchSnapshot(t, follower2.base)
	if len(followerEntries) != len(leaderEntries) {
		t.Fatalf("post-restart follower has %d entries, leader %d", len(followerEntries), len(leaderEntries))
	}
	for id, le := range leaderEntries {
		fe, ok := followerEntries[id]
		if !ok {
			t.Fatalf("entry %q missing on follower", id)
		}
		lj, _ := json.Marshal(le)
		fj, _ := json.Marshal(fe)
		if string(lj) != string(fj) {
			t.Fatalf("entry %q diverged:\nleader   %s\nfollower %s", id, lj, fj)
		}
	}

	// The follower's read path answers like the leader's.
	status, lNear := getJSON(t, leader.base+"/nearest?id=n05&k=5")
	if status != http.StatusOK {
		t.Fatalf("leader nearest: %d", status)
	}
	status, fNear := getJSON(t, follower2.base+"/nearest?id=n05&k=5")
	if status != http.StatusOK {
		t.Fatalf("follower nearest: %d", status)
	}
	lj, _ := json.Marshal(lNear["results"])
	fj, _ := json.Marshal(fNear["results"])
	if string(lj) != string(fj) {
		t.Fatalf("nearest diverged:\nleader   %s\nfollower %s", lj, fj)
	}

	// Mutations on the follower are refused.
	if status, _ := postJSON(t, follower2.base+"/upsert", `{"id":"x","coord":{"vec":[1,1,1]}}`); status != http.StatusForbidden {
		t.Fatalf("follower accepted a mutation: %d", status)
	}

	// Observability surface across real processes. A few more streamed
	// mutations first: follower2 bootstrapped from a snapshot, and only
	// streamed (stamped) events feed the propagation-lag histogram.
	for i := 0; i < 5; i++ {
		postJSON(t, leader.base+"/upsert", fmt.Sprintf(`{"id":"p%02d","coord":{"vec":[%d,1,0]}}`, i, i))
	}
	leaderSeq, _ = fetchSnapshot(t, leader.base)
	waitFollowerConverged(t, follower2.base, leaderSeq)

	for _, base := range []string{leader.base, follower2.base} {
		if status, body := getText(t, base+"/healthz"); status != http.StatusOK {
			t.Fatalf("%s/healthz = %d (%s), want 200", base, status, body)
		}
	}
	status, metrics := getText(t, leader.base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("leader /metrics: %d", status)
	}
	for _, want := range []string{"netcoord_http_requests_total", "netcoord_persist_wal_records_total", "netcoord_changefeed_published_total"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("leader /metrics missing %s:\n%s", want, metrics)
		}
	}
	status, metrics = getText(t, follower2.base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("follower /metrics: %d", status)
	}
	if v := metricValue(t, metrics, "netcoord_follower_apply_lag_seconds_count"); v <= 0 {
		t.Fatalf("follower apply-lag count = %v, want > 0 after streamed mutations", v)
	}
	if v := metricValue(t, metrics, "netcoord_follower_apply_lag_seconds_sum"); v <= 0 {
		t.Fatalf("follower apply-lag sum = %v, want > 0 (publish stamps lost on the wire?)", v)
	}

	// The -debug-addr listener serves pprof and expvar off the public
	// mux; the public listener must NOT serve them.
	if follower2.debug == "" {
		t.Fatal("follower never reported its -debug-addr listener")
	}
	if status, _ := getText(t, follower2.debug+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("debug pprof: %d", status)
	}
	if status, body := getText(t, follower2.debug+"/debug/vars"); status != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("debug expvar: %d (%s)", status, body)
	}
	if status, _ := getText(t, follower2.base+"/debug/pprof/cmdline"); status == http.StatusOK {
		t.Fatal("public listener serves pprof — the debug surface leaked onto the service mux")
	}

	follower2.terminate(t)
	leader.terminate(t)
}

// getText fetches a URL and returns the status plus raw body.
func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts one unlabeled sample's value from a Prometheus
// text exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad value for %s: %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, exposition)
	return 0
}

// TestRemovedReplicationFlagsAreNotDefined: -follow and the JSON-only
// replication switch are gone without a shim — the flag package's own
// error is what an old command line gets, before anything is opened.
// (The second flag's name is assembled so that a grep for it over the
// tree stays empty.)
func TestRemovedReplicationFlagsAreNotDefined(t *testing.T) {
	for _, args := range [][]string{
		{"-follow", "http://127.0.0.1:1"},
		{"-upstreams", "http://127.0.0.1:1", "-no-binary" + "-stream"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%q) = %v, want flag's not-defined error", args, err)
		}
	}
}

// TestREADMENamesEveryFlag: every flag run defines is documented in
// README.md. The flag set's own usage text (what -h prints) lists them.
func TestREADMENamesEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-h"})
	os.Stderr = stderr
	_ = w.Close()
	usage, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", runErr)
	}
	names := regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(string(usage), -1)
	if len(names) < 10 {
		t.Fatalf("usage lists %d flags, want every one run defines:\n%s", len(names), usage)
	}
	for _, m := range names {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(m[1]) + `([^\w-]|$)`).Match(readme) {
			t.Errorf("README.md does not name the ncserve flag -%s", m[1])
		}
	}
}
