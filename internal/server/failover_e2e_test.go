package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcoord"
	"netcoord/internal/faultproxy"
)

// proxyFor fronts an httptest server with a fault proxy.
func proxyFor(t *testing.T, tsURL string, opts faultproxy.Options) *faultproxy.Proxy {
	t.Helper()
	p, err := faultproxy.New(strings.TrimPrefix(tsURL, "http://"), opts)
	if err != nil {
		t.Fatalf("faultproxy.New: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

// startUpstreamsFollower starts a follower with an ordered failover
// list and test-friendly timings.
func startUpstreamsFollower(t *testing.T, upstreams ...string) *netcoord.FollowerRegistry {
	t.Helper()
	f, err := netcoord.StartFollower(netcoord.FollowerConfig{
		Upstreams:   upstreams,
		WaitTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// waitFollowerSeq polls until the follower has applied through seq.
func waitFollowerSeq(t *testing.T, name string, f *netcoord.FollowerRegistry, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for f.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at seq %d, want %d (stats %+v)", name, f.AppliedSeq(), seq, f.FollowerStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillTheLeaderE2E is the headline failover scenario: a three-tier
// relay chain (leader → F1 → F2) plus a sibling replica F3 parented on
// the leader, every replication edge running through a fault proxy,
// and ≥64 live /changes watchers spread over the replica tiers. The
// leader is partitioned away mid-mutation, F1 is promoted, F3 fails
// over to the new leader, writes continue, and every watcher must
// observe one gap-free duplicate-free sequence across the epoch
// boundary. Finally a replica is steered onto the still-running
// deposed leader and must fence it out, counting rejected_stale_epoch.
func TestKillTheLeaderE2E(t *testing.T) {
	const (
		seedN  = 20
		phaseA = 150 // pre-failover writes to the original leader
		phaseB = 150 // post-promotion writes to the new leader
		phaseC = 50  // writes after the fencing episode resolves
		target = seedN + phaseA + phaseB + phaseC
	)

	leaderTS, leaderReg := newTestServiceReg(t, netcoord.RegistryConfig{})

	// Topology, every replication edge through a fault proxy:
	//
	//   leader ──pxLF1──▶ F1 ──pxF1F2──▶ F2   (F2 falls back to the
	//   leader ──pxLF3──▶ F3                   leader directly; F3
	//                                          falls back to F1)
	pxLF1 := proxyFor(t, leaderTS.URL, faultproxy.Options{Seed: 1})
	f1 := startUpstreamsFollower(t, pxLF1.URL())
	f1TS := newFollowerService(t, f1)
	pxF1F2 := proxyFor(t, f1TS.URL, faultproxy.Options{Seed: 2})
	f2 := startUpstreamsFollower(t, pxF1F2.URL(), leaderTS.URL)
	f2TS := newFollowerService(t, f2)
	pxLF3 := proxyFor(t, leaderTS.URL, faultproxy.Options{Seed: 3})
	f3 := startUpstreamsFollower(t, pxLF3.URL(), f1TS.URL)
	f3TS := newFollowerService(t, f3)

	for i := 0; i < seedN; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"seed%02d","coord":{"vec":[%d,0,0]},"error":0.1}`, i, i))
	}

	// ≥64 watchers tailing /changes across the replica tiers, each
	// verifying its stream is dense, duplicate-free, and epoch-
	// monotonic from seq 1 through target.
	const watchers = 66
	tiers := []string{f1TS.URL, f2TS.URL, f3TS.URL}
	var watcherWG sync.WaitGroup
	watcherErr := make(chan string, watchers)
	var eventsSeen atomic.Uint64
	for w := 0; w < watchers; w++ {
		base := tiers[w%len(tiers)]
		watcherWG.Add(1)
		go func(w int, base string) {
			defer watcherWG.Done()
			var cur, epoch uint64
			deadline := time.Now().Add(90 * time.Second)
			client := &http.Client{Timeout: 10 * time.Second}
			for cur < target {
				if time.Now().After(deadline) {
					watcherErr <- fmt.Sprintf("watcher %d on %s stuck at seq %d", w, base, cur)
					return
				}
				resp, err := client.Get(fmt.Sprintf("%s/changes?since=%d&wait=1s&limit=128", base, cur))
				if err != nil {
					// Transient while the tier resynchronizes; retry.
					time.Sleep(10 * time.Millisecond)
					continue
				}
				var body struct {
					Epoch  uint64 `json:"epoch"`
					Events []struct {
						Seq   uint64 `json:"seq"`
						Epoch uint64 `json:"epoch"`
					} `json:"events"`
				}
				derr := decodeInto(resp, &body)
				if derr != nil {
					watcherErr <- fmt.Sprintf("watcher %d on %s: %v", w, base, derr)
					return
				}
				for _, ev := range body.Events {
					if ev.Seq != cur+1 {
						watcherErr <- fmt.Sprintf("watcher %d on %s: seq %d after %d (gap or duplicate)", w, base, ev.Seq, cur)
						return
					}
					if ev.Epoch < epoch {
						watcherErr <- fmt.Sprintf("watcher %d on %s: epoch went backwards %d→%d at seq %d", w, base, epoch, ev.Epoch, ev.Seq)
						return
					}
					cur, epoch = ev.Seq, ev.Epoch
					eventsSeen.Add(1)
				}
			}
			if epoch != 1 {
				watcherErr <- fmt.Sprintf("watcher %d on %s finished at epoch %d, want 1 (never crossed the promotion)", w, base, epoch)
			}
		}(w, base)
	}

	// Phase A: mutate the original leader; the whole tree converges.
	for i := 0; i < phaseA; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"seed%02d","coord":{"vec":[%d,%d,0]},"error":0.1}`, i%seedN, i%seedN, i%7))
	}
	preSeq := uint64(seedN + phaseA)
	if got := leaderReg.ChangeSeq(); got != preSeq {
		t.Fatalf("leader seq = %d, want %d", got, preSeq)
	}
	waitFollowerSeq(t, "f1", f1, preSeq)
	waitFollowerSeq(t, "f2", f2, preSeq)
	waitFollowerSeq(t, "f3", f3, preSeq)

	// Kill the leader: both of its edges go dark at once. The leader
	// process itself stays up — it is now a deposed leader that still
	// answers anyone who reaches it directly.
	pxLF1.SetPartitioned(true)
	pxLF3.SetPartitioned(true)

	// Promote F1. The response carries the new epoch; a second promote
	// is idempotent.
	code, out := postJSON(t, f1TS.URL+"/promote", `{}`)
	if code != http.StatusOK || out["promoted"] != true {
		t.Fatalf("promote: %d %v", code, out)
	}
	if out["epoch"].(float64) != 1 {
		t.Fatalf("promote epoch = %v, want 1", out["epoch"])
	}
	if code, out = postJSON(t, f1TS.URL+"/promote", `{}`); code != http.StatusOK || out["already"] != true {
		t.Fatalf("second promote: %d %v", code, out)
	}

	// Phase B: the new leader accepts writes, stamped with epoch 1; the
	// surviving tier (F2) keeps tailing and the orphaned tier (F3)
	// fails over to its listed fallback — the new leader.
	for i := 0; i < phaseB; i++ {
		code, out := postJSON(t, f1TS.URL+"/upsert", fmt.Sprintf(`{"id":"b%03d","coord":{"vec":[%d,50,0]},"error":0.1}`, i, i%97))
		if code != http.StatusOK {
			t.Fatalf("post-promotion upsert %d: %d %v", i, code, out)
		}
		if i == 0 && out["epoch"].(float64) != 1 {
			t.Fatalf("post-promotion upsert epoch = %v, want 1", out["epoch"])
		}
	}
	postB := preSeq + phaseB
	if got := f1.ChangeSeq(); got != postB {
		t.Fatalf("new leader seq = %d, want %d (promotion must continue the sequence space)", got, postB)
	}
	waitFollowerSeq(t, "f2", f2, postB)
	waitFollowerSeq(t, "f3", f3, postB)
	if st := f3.FollowerStats(); st.Failovers < 1 {
		t.Fatalf("f3 never failed over: %+v", st)
	} else if st.LeaderURL != f1TS.URL {
		t.Fatalf("f3 tails %s, want the new leader %s", st.LeaderURL, f1TS.URL)
	}

	// The deposed leader still takes writes from anyone who reaches it
	// directly — the classic split brain. Cut F2 away from the new
	// leader so it rotates onto the deposed one: every response it gets
	// carries epoch 0 and must be fenced, not applied.
	for i := 0; i < 5; i++ {
		postJSON(t, leaderTS.URL+"/upsert", fmt.Sprintf(`{"id":"split%d","coord":{"vec":[%d,99,0]},"error":0.1}`, i, i))
	}
	pxF1F2.SetPartitioned(true)
	fenceDeadline := time.Now().Add(20 * time.Second)
	for f2.FollowerStats().RejectedStaleEpoch == 0 {
		if time.Now().After(fenceDeadline) {
			t.Fatalf("f2 never fenced the deposed leader: %+v", f2.FollowerStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f2.AppliedSeq() != postB {
		t.Fatalf("f2 applied seq moved to %d while fenced, want %d (deposed leader's writes leaked in)", f2.AppliedSeq(), postB)
	}
	if _, ok := f2.Get("split0"); ok {
		t.Fatal("a deposed-leader write reached f2 through the fence")
	}
	// The rejection is visible on F2's metrics surface too.
	if !metricAtLeast(t, f2TS.URL, "netcoord_follower_rejected_stale_epoch_total", 1) {
		t.Fatal("rejected_stale_epoch not surfaced in /metrics")
	}

	// Heal the F1→F2 edge; F2 rotates home and catches up. Phase C
	// proves the whole tree converges after the episode.
	pxF1F2.SetPartitioned(false)
	for i := 0; i < phaseC; i++ {
		postJSON(t, f1TS.URL+"/upsert", fmt.Sprintf(`{"id":"c%03d","coord":{"vec":[%d,70,0]},"error":0.1}`, i, i%89))
	}
	waitFollowerSeq(t, "f2", f2, target)
	waitFollowerSeq(t, "f3", f3, target)

	watcherWG.Wait()
	close(watcherErr)
	for msg := range watcherErr {
		t.Error(msg)
	}
	if t.Failed() {
		t.FailNow()
	}
	if got, want := eventsSeen.Load(), uint64(watchers*target); got != want {
		t.Fatalf("watchers verified %d events in total, want %d", got, want)
	}

	// Replicas of the new leader are identical to it, entry for entry —
	// and free of the deposed leader's split-brain writes.
	for name, f := range map[string]*netcoord.FollowerRegistry{"f2": f2, "f3": f3} {
		ls, fs := f1.Snapshot(), f.Snapshot()
		if len(ls) != len(fs) {
			t.Fatalf("%s has %d entries, new leader %d", name, len(fs), len(ls))
		}
		for i := range ls {
			if fs[i].ID != ls[i].ID || !fs[i].Coord.Equal(ls[i].Coord) {
				t.Fatalf("%s entry %d: %+v vs leader %+v", name, i, fs[i], ls[i])
			}
		}
	}
}

// decodeInto decodes a JSON response body, closing it.
func decodeInto(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricAtLeast scrapes base/metrics and reports whether the named
// metric's value is at least min.
func metricAtLeast(t *testing.T, base, name string, min float64) bool {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			fmt.Sscanf(fields[1], "%g", &v)
			return v >= min
		}
	}
	t.Fatalf("metric %s not found in /metrics output", name)
	return false
}
