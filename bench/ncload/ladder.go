package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"netcoord"
	"netcoord/bench/gen"
	"netcoord/internal/bheap"
	"netcoord/internal/changefeed"
	"netcoord/internal/coord"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/index"
	"netcoord/internal/netsim"
	"netcoord/internal/persist"
	"netcoord/internal/server"
	"netcoord/internal/sim"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
	"netcoord/internal/wire"
)

// The traced pass measures layers from outside the program: it replays
// a seeded sample of a workload's own inputs, in process and on one
// goroutine, at successive depths — the whole handler, then the
// registry call under it, then the index call under that — with a span
// around each call. A layer's self time is the median of its span minus
// the median of its child's. Counters come from what ncserve already
// exports. Nothing inside the program is instrumented; that is ROADMAP
// item 5.

// perLayer lists the per-layer metrics of the traced pass. A workload
// that does not exercise a metric's layer reports it as 0.
var perLayer = []metricSpec{
	{"net.self_us", "us", "lower"},
	{"server.serve_us", "us", "lower"},
	{"server.self_us", "us", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"server.resp_bytes_per_req", "bytes", "lower"},
	{"server.cpu_us_per_req", "us", "lower"},
	{"server.rss_mb", "MB", "lower"},
	{"query.nearest_us", "us", "lower"},
	{"query.batch_us_per_query", "us", "lower"},
	{"query.self_us", "us", "lower"},
	{"query.allocs_per_op", "count", "lower"},
	{"index.knn_us", "us", "lower"},
	{"index.insert_us", "us", "lower"},
	{"index.build_ms_100k", "ms", "lower"},
	{"index.height_after_churn", "count", "lower"},
	{"index.rebuilds_after_churn", "count", "lower"},
	{"registry.upsert_us", "us", "lower"},
	{"registry.refresh_us", "us", "lower"},
	{"registry.bulk_load_ms_100k", "ms", "lower"},
	{"changefeed.publish_ns", "ns", "lower"},
	{"changefeed.coalesced_share", "ratio", "lower"},
	{"changefeed.overflows", "count", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.frame_bytes", "bytes", "lower"},
	{"wire.snapshot_decode_ms_100k", "ms", "lower"},
	{"persist.log_upsert_ns", "ns", "lower"},
	{"persist.wal_bytes_per_upsert", "bytes", "lower"},
	{"persist.fsync_p50_ms", "ms", "lower"},
	{"persist.fsyncs_per_s", "1/s", "lower"},
	{"persist.open_ms", "ms", "lower"},
	{"persist.replay_ms_20k", "ms", "lower"},
	{"follower.apply_lag_p50_ms", "ms", "lower"},
	{"follower.apply_lag_p99_ms", "ms", "lower"},
	{"follower.bootstrap_entries_per_s", "1/s", "higher"},
	{"follower.frames_share", "ratio", "higher"},
	{"hub.deliver_lag_p50_ms", "ms", "lower"},
	{"hub.recompute_p50_us", "us", "lower"},
	{"hub.damages_per_event", "ratio", "lower"},
	{"sim.step_ns", "ns", "lower"},
	{"sim.self_ns", "ns", "lower"},
	{"sim.allocs_per_step", "count", "lower"},
	{"sim.parallel_speedup", "ratio", "higher"},
	{"vivaldi.update_ns", "ns", "lower"},
	{"filter.mp_observe_ns", "ns", "lower"},
	{"heuristic.energy_observe_ns", "ns", "lower"},
	{"trace.gen_ns_per_sample", "ns", "lower"},
	{"e2e.query_p99_us", "us", "lower"},
	{"e2e.upsert_p50_us", "us", "lower"},
	{"e2e.upsert_p99_us", "us", "lower"},
	{"e2e.deliver_p99_us", "us", "lower"},
	{"e2e.recover_s", "s", "lower"},
	{"e2e.bootstrap_s", "s", "lower"},
	{"e2e.sim_rel_err_p50", "ratio", "lower"},
	{"e2e.sim_instability_ms_s", "ms/s", "lower"},
	{"ncload.socket_p50_us", "us", "lower"},
	{"ncload.residual_pct", "%", "lower"},
	{"ncload.slice_spread", "ratio", "lower"},
	{"ncload.speed", "ratio", "higher"},
	{"ncload.stolen_cpu_pct", "%", "lower"},
	{"ncload.trace_overhead_pct", "%", "lower"},
}

// span is one timed call: which layer, for which operation of the
// replayed sample, under which parent span, from when to when. A span
// around n back-to-back calls (layers too fast to time one by one)
// records n.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     int    `json:"op"`
	N      int    `json:"n,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span measured by the caller; a nil or switched-off
// tracer records nothing, which is the untraced run.
func (t *tracer) add(name, parent string, op, n int, start, end time.Time) {
	if t == nil || !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, N: n, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// run times f as one span covering n calls.
func (t *tracer) run(name, parent string, op, n int, f func()) {
	start := time.Now()
	f()
	t.add(name, parent, op, n, start, time.Now())
}

// p50 is the median time per call of the spans named name, in
// nanoseconds; 0 when there are none.
func (t *tracer) p50(name string) float64 {
	var xs []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/float64(max(s.N, 1)))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// Sizes of the replayed samples.
const (
	ladderOps     = 2000 // operations replayed at each depth
	ladderBatches = 128  // /nearest/batch requests replayed (32 queries each)
	ladderWarm    = 200  // unrecorded operations before each depth
	nsBatch       = 100  // calls per span for layers that take nanoseconds
	coldRepeats   = 5    // repetitions of each cold-path measurement
	indexShards   = 16   // the registry's default stripe count
)

// layers is the per-layer result of one traced pass.
type layers map[string]float64

// runTraced is the traced one-workload run: the workload's socket
// traffic once with spans off and once with spans on (their difference
// is the tracing overhead), the server's counters read around both, and
// then the in-process ladder over the same seeded inputs. The spans go
// to trace.json in the scratch directory.
func runTraced(name string, e env, d time.Duration) *workloadReport {
	rep := &workloadReport{}
	e.debug = true
	e.tr = newTracer()
	w, err := newWorkload(name, e)
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	defer w.close()
	if err := w.setup(); err != nil {
		rep.Error = "set-up: " + err.Error()
		return rep
	}
	w.slice(e.size.warm)
	out := layers{}
	before, err := readCounters(w)
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	if before.primary != nil {
		out["server.rss_mb"], _ = rssMB(before.primary.cmd.Process.Pid)
	}
	// Untraced half, in slices of at most a second so that their spread
	// shows how noisy the box was; then the traced half in one piece.
	n := max(2, int(d/2/time.Second))
	stolen, start, cal := stolenSeconds(), time.Now(), newCalibrator()
	for i := 0; i < n; i++ {
		rep.slices = append(rep.slices, w.slice(d/2/time.Duration(n)))
	}
	e.tr.on = true
	traced := w.slice(d / 2)
	e.tr.on = false
	// Per-layer times are reported as measured; these two say how fast
	// and how disturbed the box was while they were taken.
	out["ncload.speed"] = cal.speed()
	out["ncload.stolen_cpu_pct"] = (stolenSeconds() - stolen) / time.Since(start).Seconds() * 100
	after, err := readCounters(w)
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	finishErr := w.finish()
	w.close()

	untraced := &workloadReport{slices: rep.slices}
	untraced.summarise(name, nil)
	both := &workloadReport{slices: append(slices.Clone(rep.slices), traced)}
	both.summarise(name, finishErr)
	rep.Attempted, rep.Failed, rep.Samples, rep.Error = both.Attempted, both.Failed, both.Samples, both.Error
	if rep.Attempted == 0 || untraced.EndToEnd["ops_per_s"] == nil || traced.busy <= 0 {
		if rep.Error == "" {
			rep.Error = "the traced pass measured nothing"
		}
		return rep
	}

	ops := untraced.EndToEnd["ops_per_s"]
	out["ncload.slice_spread"] = sliceSpread(ops)
	out["ncload.trace_overhead_pct"] = (ops.Median - traced.work/traced.busy.Seconds()) / ops.Median * 100
	out["ncload.socket_p50_us"] = e.tr.p50("socket") / 1e3
	requests := float64(both.Attempted)
	counterLayers(out, before, after, requests)
	// The workload's own end-to-end metrics as this pass saw them: the
	// bounded ones come from the untraced run only.
	for _, wm := range workloadMetrics {
		if m := both.EndToEnd[wm.Name]; m != nil {
			out["e2e."+wm.Name] = m.Value
		}
	}

	// Each ladder fills in its layers and returns how many microseconds
	// of one operation's latency they account for.
	var explainedUs float64
	var ladderErr error
	switch w := w.(type) {
	case *readWorkload:
		explainedUs, ladderErr = ladderRead(e, w.batch, out)
	case *writeWorkload:
		explainedUs, ladderErr = ladderWrite(e, out)
	case *recoverWorkload:
		explainedUs, ladderErr = ladderRecover(e, w, out)
	case *simWorkload:
		explainedUs, ladderErr = ladderSim(e, w, out)
	}
	if ladderErr != nil && rep.Error == "" {
		rep.Error = "ladder: " + ladderErr.Error()
	}
	// The socket's share is what is left of the round trip once the
	// handler's time is taken out; workloads without a socket have none.
	if serve, socket := out["server.serve_us"], out["ncload.socket_p50_us"]; serve > 0 && socket > 0 {
		out["net.self_us"] = socket - serve
	}
	// Residual: the untraced median the layers are meant to explain,
	// minus everything the ladder attributed.
	if e2e := untraced.EndToEnd["latency_p50_ms"]; e2e != nil && explainedUs > 0 {
		out["ncload.residual_pct"] = (e2e.Median*1e3 - explainedUs) / (e2e.Median * 1e3) * 100
	}

	rep.PerLayer = map[string]*metricReport{}
	for _, spec := range perLayer {
		v := out[spec.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.PerLayer[spec.Name] = &metricReport{Value: v, Unit: spec.Unit}
		delete(out, spec.Name)
	}
	for name := range out {
		rep.Error = fmt.Sprintf("ladder produced %q, which perLayer does not list", name)
	}
	rep.Correct = rep.Error == "" && rep.Failed == 0
	if err := writeSpans(filepath.Join(e.p.work, "trace.json"), name, e.tr); err != nil && rep.Error == "" {
		rep.Error = err.Error()
	}
	return rep
}

func writeSpans(path, workload string, t *tracer) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters is one reading of what a workload's servers export.
type counters struct {
	at       time.Time
	primary  *child // the server the request connection talks to
	metrics  scrape // primary's /metrics
	follower scrape // the follower's /metrics, on write-replicate
	mallocs  float64
	cpu      float64
}

func readCounters(w workload) (*counters, error) {
	c := &counters{at: time.Now()}
	switch w := w.(type) {
	case *readWorkload:
		c.primary = w.server
	case *writeWorkload:
		c.primary = w.leader
		var err error
		if c.follower, err = scrapeMetrics(w.follower.url); err != nil {
			return nil, err
		}
	default:
		return c, nil
	}
	var err error
	if c.metrics, err = scrapeMetrics(c.primary.url); err != nil {
		return nil, err
	}
	if c.mallocs, err = memMallocs(c.primary.debug); err != nil {
		return nil, err
	}
	c.cpu, err = cpuSeconds(c.primary.cmd.Process.Pid)
	return c, err
}

// counterLayers turns two counter readings into per-request figures.
func counterLayers(out layers, a, b *counters, requests float64) {
	if a.primary == nil || requests == 0 {
		return
	}
	out["server.allocs_per_req"] = (b.mallocs - a.mallocs) / requests
	out["server.cpu_us_per_req"] = (b.cpu - a.cpu) * 1e6 / requests
	var bytesOut float64
	for _, route := range []string{`route="/nearest"`, `route="/nearest/batch"`, `route="/upsert"`} {
		bytesOut += b.metrics.get("netcoord_http_response_bytes_total", route) - a.metrics.get("netcoord_http_response_bytes_total", route)
	}
	out["server.resp_bytes_per_req"] = bytesOut / requests
	if a.follower == nil {
		return
	}
	delta := func(s0, s1 scrape, name string) float64 { return s1.get(name) - s0.get(name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out["changefeed.coalesced_share"] = ratio(delta(a.follower, b.follower, "netcoord_changefeed_coalesced_total"), delta(a.follower, b.follower, "netcoord_changefeed_published_total"))
	out["changefeed.overflows"] = delta(a.metrics, b.metrics, "netcoord_changefeed_overflows_total") + delta(a.follower, b.follower, "netcoord_changefeed_overflows_total")
	out["persist.wal_bytes_per_upsert"] = delta(a.metrics, b.metrics, "netcoord_persist_wal_bytes") / requests
	out["persist.fsyncs_per_s"] = delta(a.metrics, b.metrics, "netcoord_persist_syncs_total") / b.at.Sub(a.at).Seconds()
	// Summaries are cumulative since the server started (set-up and
	// warm-up included) and come from log buckets: ≤ 25 % quantile error.
	out["persist.fsync_p50_ms"] = b.metrics.get("netcoord_persist_fsync_seconds", `quantile="0.5"`) * 1e3
	out["follower.apply_lag_p50_ms"] = b.follower.get("netcoord_follower_apply_lag_seconds", `quantile="0.5"`) * 1e3
	out["follower.apply_lag_p99_ms"] = b.follower.get("netcoord_follower_apply_lag_seconds", `quantile="0.99"`) * 1e3
	out["follower.frames_share"] = ratio(delta(a.follower, b.follower, "netcoord_follower_frames_received_total"), delta(a.follower, b.follower, "netcoord_follower_events_applied_total"))
	out["hub.deliver_lag_p50_ms"] = b.follower.get("netcoord_watch_deliver_lag_seconds", `quantile="0.5"`) * 1e3
	out["hub.recompute_p50_us"] = b.follower.get("netcoord_watch_recompute_seconds", `quantile="0.5"`) * 1e6
	out["hub.damages_per_event"] = ratio(delta(a.follower, b.follower, "netcoord_watch_damages_total"), delta(a.follower, b.follower, "netcoord_watch_events_total"))
}

// loadRegistry fills a registry the way set-up fills a server: in
// populateChunk batches, so the index has the shape the server's has.
func loadRegistry(reg *netcoord.Registry, entries []netcoord.RegistryEntry) error {
	for at := 0; at < len(entries); at += populateChunk {
		if err := reg.UpsertBatch(entries[at:min(at+populateChunk, len(entries))]); err != nil {
			return err
		}
	}
	return nil
}

// buildTrees splits entries over indexShards bulk-built trees.
func buildTrees(entries []netcoord.RegistryEntry) ([]*index.Tree, error) {
	parts := make([][]index.Entry, indexShards)
	for i, e := range entries {
		parts[i%indexShards] = append(parts[i%indexShards], index.Entry{ID: e.ID, Coord: e.Coord})
	}
	trees := make([]*index.Tree, indexShards)
	for i, part := range parts {
		var err error
		if trees[i], err = index.Build(gen.Dim, part); err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// serve runs one request through a handler and requires a 200.
func serve(h http.Handler, path string, body []byte, t *tracer, parent string, op, n int) error {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t.run("server.serve", parent, op, n, func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// ladderRead is the layer ladder of read-knn and read-batch: handler →
// Registry.NearestInto / NearestBatch → Tree.KNearestInto.
func ladderRead(e env, batch bool, out layers) (explainedUs float64, err error) {
	t := e.tr
	entries := gen.Entries(e.seed, e.size.entries)
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	if err := loadRegistry(reg, entries); err != nil {
		return 0, err
	}
	srv := server.New(server.Config{Registry: reg})
	defer srv.Stop()
	trees, err := buildTrees(entries)
	if err != nil {
		return 0, err
	}

	// The same points the socket pass sends first.
	perReq, reqs, path := 1, ladderOps, "/nearest"
	if batch {
		perReq, reqs, path = gen.BatchSize, ladderBatches, "/nearest/batch"
	}
	q := gen.NewQueries(e.seed)
	points := make([]netcoord.Coordinate, (ladderWarm+reqs)*perReq)
	for i := range points {
		points[i] = q.Next()
	}
	request := func(i int) []netcoord.Coordinate { return points[i*perReq : (i+1)*perReq] }

	var body []byte
	for i := 0; i < ladderWarm+reqs; i++ {
		t.on = i >= ladderWarm
		if batch {
			body = gen.AppendNearestBatch(body[:0], request(i))
		} else {
			body = gen.AppendNearest(body[:0], request(i)[0])
		}
		if err := serve(srv, path, body, t, "socket", i-ladderWarm, 1); err != nil {
			return 0, err
		}
	}
	var dst []netcoord.Ranked
	queries := make([]netcoord.NearestQuery, perReq)
	for i := 0; i < ladderWarm+reqs; i++ {
		t.on = i >= ladderWarm
		pts := request(i)
		if batch {
			for j, p := range pts {
				queries[j] = netcoord.NearestQuery{From: p, K: gen.K}
			}
			t.run("query.batch", "server.serve", i-ladderWarm, perReq, func() { _, err = reg.NearestBatch(queries) })
		} else {
			t.run("query.nearest", "server.serve", i-ladderWarm, 1, func() { dst, err = reg.NearestInto(pts[0], gen.K, dst) })
		}
		if err != nil {
			return 0, err
		}
	}
	heap := bheap.New(gen.K, index.NeighborBefore)
	var bound index.Bound
	queryLayer := "query.nearest"
	if batch {
		queryLayer = "query.batch"
	}
	for i, p := range points {
		t.on = i >= ladderWarm*perReq
		t.run("index.knn", queryLayer, (i-ladderWarm*perReq)/perReq, 1, func() {
			bound.Reset(math.Inf(1))
			heap.Reset(gen.K)
			for _, tree := range trees {
				if kerr := tree.KNearestInto(p, gen.K, heap, &bound); kerr != nil {
					err = kerr
				}
			}
		})
		if err != nil {
			return 0, err
		}
	}
	t.on = false

	serveUs := t.p50("server.serve") / 1e3
	knnUs := t.p50("index.knn") / 1e3
	perQueryUs := t.p50("query.nearest") / 1e3
	if batch {
		perQueryUs = t.p50("query.batch") / 1e3
		out["query.batch_us_per_query"] = perQueryUs
	} else {
		out["query.nearest_us"] = perQueryUs
		out["query.allocs_per_op"] = testing.AllocsPerRun(200, func() { dst, _ = reg.NearestInto(points[0], gen.K, dst) })
	}
	out["server.serve_us"] = serveUs
	out["server.self_us"] = serveUs - perQueryUs*float64(perReq)
	out["query.self_us"] = perQueryUs - knnUs
	out["index.knn_us"] = knnUs
	// net.self + server.self + perReq × (query.self + index.knn)
	// telescopes to the traced socket median.
	return out["ncload.socket_p50_us"], nil
}

// ladderWrite is the ack-path ladder of write-replicate: handler →
// Registry.UpsertBatch → Tree.Insert, Feed.PublishUpsert,
// Store.LogUpsert — and the wire codec the stream then runs.
func ladderWrite(e env, out layers) (explainedUs float64, err error) {
	t := e.tr
	entries := gen.Entries(e.seed, e.size.entries)
	schedule := func() *gen.Writes { return gen.NewWrites(e.seed, entries) }

	// Depth 1: the handler over a persistent registry, as on the leader.
	dir, err := e.p.tempDir("ladder-leader")
	if err != nil {
		return 0, err
	}
	defer e.p.removeDir(dir)
	pr, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer pr.Close()
	if err := loadRegistry(pr.Registry, entries); err != nil {
		return 0, err
	}
	srv := server.New(server.Config{Registry: pr.Registry, Source: pr, Persist: pr})
	defer srv.Stop()
	var body []byte
	w := schedule()
	for i := 0; i < ladderWarm+ladderOps; i++ {
		t.on = i >= ladderWarm
		body = gen.AppendEntry(body[:0], w.Next().Entry)
		if err := serve(srv, "/upsert", body, t, "socket", i-ladderWarm, 1); err != nil {
			return 0, err
		}
	}

	// Depth 2: the registry call, change stream on, by kind of upsert.
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: netcoord.DefaultChangeStreamBuffer})
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	if err := loadRegistry(reg, entries); err != nil {
		return 0, err
	}
	w = schedule()
	one := make([]netcoord.RegistryEntry, 1)
	var ops []gen.WriteOp
	for i := 0; i < ladderWarm+ladderOps; i++ {
		t.on = i >= ladderWarm
		op := w.Next()
		ops = append(ops, op)
		name := "registry.upsert"
		if op.Kind == gen.Heartbeat {
			name = "registry.refresh"
		}
		one[0] = op.Entry
		t.run(name, "server.serve", i-ladderWarm, 1, func() { err = reg.UpsertBatch(one) })
		if err != nil {
			return 0, err
		}
	}

	// Depth 3, index: inserts of the moved entries, then the tree's
	// shape after a long stretch of the schedule.
	tree, err := index.Build(gen.Dim, toIndexEntries(entries))
	if err != nil {
		return 0, err
	}
	w = schedule()
	churn := e.size.entries / 2
	for i := 0; i < churn; i++ {
		op := w.Next()
		if op.Kind == gen.Heartbeat {
			continue
		}
		t.on = i >= ladderWarm && i < ladderWarm+10*ladderOps
		t.run("index.insert", "registry.upsert", i, 1, func() { err = tree.Insert(op.Entry.ID, op.Entry.Coord) })
		if err != nil {
			return 0, err
		}
	}
	t.on = true
	st := tree.Stats()
	out["index.height_after_churn"] = float64(st.Height)
	out["index.rebuilds_after_churn"] = float64(st.Rebuilds)

	// Depth 3, stream and log: too fast to time singly, so nsBatch calls
	// share a span.
	feed := changefeed.New(netcoord.DefaultChangeStreamBuffer, 0)
	defer feed.Close()
	sub := feed.SubscribeFunc(func(*changefeed.Event) bool { return true }, func() {})
	defer sub.Close()
	sdir, err := e.p.tempDir("ladder-store")
	if err != nil {
		return 0, err
	}
	defer e.p.removeDir(sdir)
	store, _, err := persist.Open(sdir, persist.Options{})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	now := time.Now()
	for b := 0; b+nsBatch <= len(ops); b += nsBatch {
		batch := ops[b : b+nsBatch]
		t.run("changefeed.publish", "registry", b/nsBatch, nsBatch, func() {
			for _, op := range batch {
				feed.PublishUpsert(changefeed.Entry{ID: op.Entry.ID, Coord: op.Entry.Coord, Error: op.Entry.Error, UpdatedAt: now})
			}
		})
		t.run("persist.log_upsert", "changefeed.publish", b/nsBatch, nsBatch, func() {
			for i, op := range batch {
				store.LogUpsert(persist.Entry{ID: op.Entry.ID, Coord: op.Entry.Coord, Error: op.Entry.Error, UpdatedAt: now}, uint64(b+i+1), 0)
			}
		})
	}
	written := make([]netcoord.RegistryEntry, len(ops))
	for i, op := range ops {
		written[i] = op.Entry
	}
	if err := wireLadder(t, written, out); err != nil {
		return 0, err
	}
	t.on = false

	serveUs := t.p50("server.serve") / 1e3
	out["server.serve_us"] = serveUs
	out["registry.upsert_us"] = t.p50("registry.upsert") / 1e3
	out["registry.refresh_us"] = t.p50("registry.refresh") / 1e3
	// Four of five upserts are heartbeats, so the median request is one.
	out["server.self_us"] = serveUs - out["registry.refresh_us"]
	out["index.insert_us"] = t.p50("index.insert") / 1e3
	out["changefeed.publish_ns"] = t.p50("changefeed.publish")
	out["persist.log_upsert_ns"] = t.p50("persist.log_upsert")
	// A probe's delivery is its trip to the leader (about one ack) plus
	// the publish-to-watcher lag the follower's hub measures; what is
	// left is the SSE frame's encoding and its socket.
	return out["e2e.upsert_p50_us"] + out["hub.deliver_lag_p50_ms"]*1e3, nil
}

// wireLadder times the stream's codec on upsert frames of the given
// entries — wire.AppendFrame, then wire.DecodeFrameInto on the bytes it
// produced — nsBatch calls per span, and records the frame size.
func wireLadder(t *tracer, entries []netcoord.RegistryEntry, out layers) error {
	now := time.Now().UnixNano()
	var buf []byte
	var decoded wire.Frame
	var err error
	for b := 0; b+nsBatch <= len(entries); b += nsBatch {
		buf = buf[:0]
		var ends [nsBatch]int
		t.run("wire.encode", "changefeed.publish", b/nsBatch, nsBatch, func() {
			for i, en := range entries[b : b+nsBatch] {
				fr := wire.Frame{Op: wire.OpUpsert, Seq: uint64(b + i + 1), PubNs: now, ID: en.ID, Coord: en.Coord, Error: en.Error, UpdatedAtNs: now}
				if buf, err = wire.AppendFrame(buf, &fr); err != nil {
					return
				}
				ends[i] = len(buf)
			}
		})
		if err != nil {
			return err
		}
		t.run("wire.decode", "follower.apply", b/nsBatch, nsBatch, func() {
			at := 0
			for _, end := range ends {
				if _, derr := wire.DecodeFrameInto(&decoded, buf[at:end]); derr != nil {
					err = derr
				}
				at = end
			}
		})
		if err != nil {
			return err
		}
	}
	out["wire.encode_ns"] = t.p50("wire.encode")
	out["wire.decode_ns"] = t.p50("wire.decode")
	out["wire.frame_bytes"] = float64(len(buf)) / nsBatch
	return nil
}

func toIndexEntries(entries []netcoord.RegistryEntry) []index.Entry {
	out := make([]index.Entry, len(entries))
	for i, e := range entries {
		out[i] = index.Entry{ID: e.ID, Coord: e.Coord}
	}
	return out
}

// ladderRecover times the cold paths a restart and a bootstrap are made
// of: persist.Open (snapshot load + tail replay), the registry bulk
// load and the index build inside it, and the snapshot wire decode.
func ladderRecover(e env, w *recoverWorkload, out layers) (explainedUs float64, err error) {
	t := e.tr
	t.on = true
	defer func() { t.on = false }()
	entries := gen.Entries(e.seed, e.size.entries)
	idx := toIndexEntries(entries)
	for i := 0; i < coldRepeats; i++ {
		t.run("index.build", "registry.bulk_load", i, 1, func() { _, err = index.Build(gen.Dim, idx) })
		if err != nil {
			return 0, err
		}
		reg, rerr := netcoord.NewRegistry(netcoord.RegistryConfig{})
		if rerr != nil {
			return 0, rerr
		}
		t.run("registry.bulk_load", "recover", i, 1, func() { err = reg.UpsertBatch(entries) })
		reg.Close()
		if err != nil {
			return 0, err
		}
	}

	// persist.Open on the recover directory, and on one holding the
	// snapshot alone: the difference is the tail's replay.
	full, err := e.p.tempDir("ladder-recover")
	if err != nil {
		return 0, err
	}
	defer e.p.removeDir(full)
	snapOnly, err := e.p.tempDir("ladder-snaponly")
	if err != nil {
		return 0, err
	}
	defer e.p.removeDir(snapOnly)
	if _, _, err := gen.BuildRecoverDir(full, e.seed, entries, e.size.recoverTail); err != nil {
		return 0, err
	}
	if _, _, err := gen.BuildRecoverDir(snapOnly, e.seed, entries, 0); err != nil {
		return 0, err
	}
	for i := 0; i < coldRepeats; i++ {
		for _, c := range []struct{ name, src string }{{"persist.open", full}, {"persist.open_snapshot", snapOnly}} {
			dir, err := e.p.tempDir("ladder-open")
			if err != nil {
				return 0, err
			}
			if err := copyDir(c.src, dir); err != nil {
				return 0, err
			}
			var store *persist.Store
			t.run(c.name, "recover", i, 1, func() { store, _, err = persist.Open(dir, persist.Options{}) })
			if err != nil {
				return 0, err
			}
			_ = store.Close()
			e.p.removeDir(dir)
		}
	}

	// The bytes a bootstrapping follower downloads, decoded as it would.
	frames := w.snapshotFrames
	var fr wire.Frame
	for i := 0; i < coldRepeats; i++ {
		var n uint64
		t.run("wire.snapshot_decode", "bootstrap", i, 1, func() {
			r := wire.NewReader(bytes.NewReader(frames), 64<<10)
			var hdr wire.SnapshotHeader
			if hdr, err = r.ReadSnapshotHeader(); err != nil {
				return
			}
			for n = 0; n < hdr.EntryCount; n++ {
				if err = r.ReadFrame(&fr); err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, fmt.Errorf("decoding the saved /snapshot?format=frames: %w", err)
		}
		if int(n) != len(w.want) {
			return 0, fmt.Errorf("snapshot frames hold %d entries, want %d", n, len(w.want))
		}
	}
	if err := wireLadder(t, entries[:min(len(entries), ladderOps)], out); err != nil {
		return 0, err
	}

	out["index.build_ms_100k"] = t.p50("index.build") / 1e6
	out["registry.bulk_load_ms_100k"] = t.p50("registry.bulk_load") / 1e6
	out["persist.open_ms"] = t.p50("persist.open") / 1e6
	out["persist.replay_ms_20k"] = (t.p50("persist.open") - t.p50("persist.open_snapshot")) / 1e6
	out["wire.snapshot_decode_ms_100k"] = t.p50("wire.snapshot_decode") / 1e6
	// Here the frame size is the snapshot's own: bytes served per entry.
	out["wire.frame_bytes"] = float64(len(frames)) / float64(len(w.want))
	if w.bootstrapSeconds > 0 {
		out["follower.bootstrap_entries_per_s"] = float64(len(w.want)) / w.bootstrapSeconds
	}
	// A restart is the open plus the bulk load; a bootstrap is the bulk
	// load plus the snapshot's decode (its transfer is the residual).
	return (out["persist.open_ms"] + 2*out["registry.bulk_load_ms_100k"] + out["wire.snapshot_decode_ms_100k"]) * 1e3, nil
}

// ladderSim times Runner.Step at steady state and, on inputs captured
// from an identical second run, the three calls it is made of.
func ladderSim(e env, w *simWorkload, out layers) (explainedUs float64, err error) {
	t := e.tr
	t.on = true
	defer func() { t.on = false }()
	network, err := netsim.New(netsim.DefaultWideArea(e.size.simNodes, e.seed))
	if err != nil {
		return 0, err
	}
	generator, err := trace.NewGenerator(network, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: uint64(e.size.simSeconds), Seed: e.seed + 1})
	if err != nil {
		return 0, err
	}
	const genBatch = 1000
	var samples []trace.Sample
	for b, done := 0, false; !done; b++ {
		t.run("trace.gen", "sim.run", b, genBatch, func() {
			for i := 0; i < genBatch; i++ {
				s, ok := generator.Next()
				if !ok {
					done = true
					return
				}
				samples = append(samples, s)
			}
		})
	}
	t.spans = t.spans[:len(t.spans)-1] // the last batch ran short

	vcfg := vivaldi.DefaultConfig()
	vcfg.Seed = e.seed + 2
	mp := filter.DefaultMPConfig()
	newRunner := func() (*sim.Runner, error) {
		return sim.NewRunner(sim.Config{
			Nodes:   e.size.simNodes,
			Vivaldi: vcfg,
			Filter:  func() filter.Filter { f, _ := filter.NewMP(mp); return f },
			Policy: func(dim int) (heuristic.Policy, error) {
				return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
			},
			Parallelism: 1,
			// Pre-sized like Simulate's runner, so steady-state steps
			// record without growing anything.
			ExpectedTicks:          uint64(e.size.simSeconds),
			ExpectedSamplesPerNode: e.size.simSeconds + 1,
		})
	}
	timed, err := newRunner()
	if err != nil {
		return 0, err
	}
	shadow, err := newRunner()
	if err != nil {
		return 0, err
	}
	// First half: reach steady state. Next 40 %: timed steps on one
	// runner, input capture on its twin. Last 10 %: allocation count.
	half, tail := len(samples)/2, len(samples)*9/10
	for _, s := range samples[:half] {
		if err := timed.Step(s); err != nil {
			return 0, err
		}
		if err := shadow.Step(s); err != nil {
			return 0, err
		}
	}
	type captured struct {
		from      int
		rtt       float64
		remote    coord.Coordinate
		remoteErr float64
		sys       coord.Coordinate
		link      *filter.MP
	}
	var caps []captured
	links := map[[2]int]*filter.MP{}
	for b := half; b+genBatch <= tail; b += genBatch {
		batch := samples[b : b+genBatch]
		t.run("sim.step", "sim.run", (b-half)/genBatch, genBatch, func() {
			for _, s := range batch {
				if serr := timed.Step(s); serr != nil {
					err = serr
				}
			}
		})
		if err != nil {
			return 0, err
		}
		for _, s := range batch {
			if s.Lost {
				if err := shadow.Step(s); err != nil {
					return 0, err
				}
				continue
			}
			remote, _ := shadow.Coordinate(s.To)
			conf, _ := shadow.Confidence(s.To)
			if err := shadow.Step(s); err != nil {
				return 0, err
			}
			sys, _ := shadow.Coordinate(s.From)
			key := [2]int{s.From, s.To}
			if links[key] == nil {
				links[key], _ = filter.NewMP(mp)
			}
			caps = append(caps, captured{from: s.From, rtt: s.RTT, remote: remote, remoteErr: 1 - conf, sys: sys, link: links[key]})
		}
	}
	at := tail
	out["sim.allocs_per_step"] = testing.AllocsPerRun(len(samples)-tail-2, func() {
		_ = timed.Step(samples[at])
		at++
	})

	nodes := make([]*vivaldi.Node, e.size.simNodes)
	policies := make([]*heuristic.Energy, e.size.simNodes)
	for i := range nodes {
		cfg := vcfg
		cfg.Seed += uint64(i)
		if nodes[i], err = vivaldi.New(cfg); err != nil {
			return 0, err
		}
		if policies[i], err = heuristic.NewEnergy(vcfg.Dimension, heuristic.DefaultWindow, heuristic.DefaultEnergyTau); err != nil {
			return 0, err
		}
	}
	for b := 0; b+genBatch <= len(caps); b += genBatch {
		batch := caps[b : b+genBatch]
		t.run("filter.mp_observe", "sim.step", b/genBatch, genBatch, func() {
			for i := range batch {
				batch[i].link.Observe(batch[i].rtt)
			}
		})
		t.run("vivaldi.update", "sim.step", b/genBatch, genBatch, func() {
			for i := range batch {
				c := &batch[i]
				if _, uerr := nodes[c.from].Update(c.rtt, c.remote, c.remoteErr); uerr != nil {
					err = uerr
				}
			}
		})
		t.run("heuristic.energy_observe", "sim.step", b/genBatch, genBatch, func() {
			for i := range batch {
				c := &batch[i]
				if _, _, oerr := policies[c.from].Observe(heuristic.Observation{Sys: c.sys}); oerr != nil {
					err = oerr
				}
			}
		})
		if err != nil {
			return 0, err
		}
	}

	// Whole runs on one worker and on GOMAXPROCS workers, alternating.
	var seq, par []float64
	for i := 0; i < 3; i++ {
		for _, c := range []struct {
			workers int
			into    *[]float64
		}{{1, &seq}, {0, &par}} {
			t0 := time.Now()
			if _, err := netcoord.Simulate(w.config(c.workers)); err != nil {
				return 0, err
			}
			*c.into = append(*c.into, time.Since(t0).Seconds())
		}
	}
	out["sim.parallel_speedup"] = median(seq) / median(par)

	out["trace.gen_ns_per_sample"] = t.p50("trace.gen")
	out["sim.step_ns"] = t.p50("sim.step")
	out["vivaldi.update_ns"] = t.p50("vivaldi.update")
	out["filter.mp_observe_ns"] = t.p50("filter.mp_observe")
	out["heuristic.energy_observe_ns"] = t.p50("heuristic.energy_observe")
	out["sim.self_ns"] = out["sim.step_ns"] - out["vivaldi.update_ns"] - out["filter.mp_observe_ns"] - out["heuristic.energy_observe_ns"]
	// One run is its samples' generation plus their steps.
	return float64(len(samples)) * (out["trace.gen_ns_per_sample"] + out["sim.step_ns"]) / 1e3, nil
}
