package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"netcoord"
	"netcoord/bench/gen"
)

// sizes scales every workload; the smoke size keeps the same code paths
// at a cost a unit test can afford.
type sizes struct {
	entries     int // registry population
	recoverTail int // WAL records after the recover snapshot
	simNodes    int
	simSeconds  int
	warm        time.Duration // unreported traffic before the first slice
}

var (
	fullSize  = sizes{entries: 100000, recoverTail: gen.RecoverTail, simNodes: 128, simSeconds: 2400, warm: 2 * time.Second}
	smokeSize = sizes{entries: 2000, recoverTail: 400, simNodes: 16, simSeconds: 240, warm: 100 * time.Millisecond}
)

// Timeouts of the waits inside workloads.
const (
	probeTimeout    = 2 * time.Second // a probe's delta later than this is a failed op
	convergeTimeout = 60 * time.Second
	populateChunk   = 4000 // entries per set-up /upsert, under the server's 1 MiB body cap
	verifyEvery     = 100  // every 100th /nearest answer goes to the oracle
)

// env is what every workload is built from.
type env struct {
	p    *procs
	seed uint64
	size sizes
	// debug starts servers with -debug-addr, for the traced pass's
	// expvar reads. Untraced runs start ncserve with no flag a user
	// would not set.
	debug bool
	// tr, when switched on, records a span around every measured
	// operation; nil in untraced runs.
	tr *tracer
}

func (e env) serverArgs(args ...string) []string {
	if e.debug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	return args
}

// sliceResult is what one measured slice of a workload produced.
type sliceResult struct {
	// busy is the time the measured operations took: wall time of the
	// closed loop, without ncload's own off-the-clock checks.
	busy time.Duration
	// work is the amount of the workload's rate unit completed.
	work float64
	// lat holds the workload's latency samples in milliseconds.
	lat []float64
	// aux holds further per-operation time samples, by name.
	aux map[string][]float64
	// exact holds results that are not times and do not depend on the
	// box: they are reported as they are, never scaled.
	exact map[string]float64

	attempted, failed int
	firstErr          error

	// speed is the box's speed during the slice relative to nominal
	// (calibrate.go); 0 means not calibrated.
	speed float64
}

func (r *sliceResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *sliceResult) addAux(name string, v float64) {
	if r.aux == nil {
		r.aux = map[string][]float64{}
	}
	r.aux[name] = append(r.aux[name], v)
}

// workload is one of the five traffic mixes. setup makes it ready to
// serve, slice measures for about d, finish runs the end-of-run
// correctness checks, close releases servers and scratch space.
type workload interface {
	setup() error
	slice(d time.Duration) *sliceResult
	finish() error
	close()
}

// workloadNames fixes the order workloads run and print in.
var workloadNames = []string{"read-knn", "read-batch", "write-replicate", "recover", "sim-paper"}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "read-knn":
		return &readWorkload{env: e}, nil
	case "read-batch":
		return &readWorkload{env: e, batch: true}, nil
	case "write-replicate":
		return &writeWorkload{env: e}, nil
	case "recover":
		return &recoverWorkload{env: e}, nil
	case "sim-paper":
		return &simWorkload{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// populate loads entries into a server through POST /upsert and returns
// the stream sequence of the last batch.
func populate(c *conn, entries []netcoord.RegistryEntry) (uint64, error) {
	var body []byte
	var seq uint64
	for at := 0; at < len(entries); at += populateChunk {
		end := min(at+populateChunk, len(entries))
		body = gen.AppendUpsertBatch(body[:0], entries[at:end])
		status, resp, err := c.do("POST", "/upsert", body)
		if err != nil {
			return 0, err
		}
		var ack upsertResponse
		if status != http.StatusOK || json.Unmarshal(resp, &ack) != nil || ack.Applied != end-at {
			return 0, fmt.Errorf("populate: status %d: %s", status, resp)
		}
		seq = ack.Seq
	}
	return seq, nil
}

// ---- read-knn and read-batch ----

// readWorkload is one closed-loop connection sending POST /nearest
// (k=8) or, with batch, POST /nearest/batch of 32 such queries to an
// in-memory ncserve.
type readWorkload struct {
	env
	batch bool

	entries []netcoord.RegistryEntry
	server  *child
	c       *conn
	queries *gen.Queries
	sent    int

	body   []byte
	points []netcoord.Coordinate
	// checks are answers set aside during a slice and compared with the
	// oracle after it, so the scan's cost never sits inside the loop.
	checks []readCheck
}

type readCheck struct {
	from netcoord.Coordinate
	at   int // index of the query inside a batch response
	resp []byte
}

func (w *readWorkload) setup() error {
	w.entries = gen.Entries(w.seed, w.size.entries)
	w.queries = gen.NewQueries(w.seed)
	w.points = make([]netcoord.Coordinate, 1)
	if w.batch {
		w.points = make([]netcoord.Coordinate, gen.BatchSize)
	}
	var err error
	if w.server, _, err = w.p.start("server", w.serverArgs()...); err != nil {
		return err
	}
	if w.c, err = dial(w.server.url); err != nil {
		return err
	}
	_, err = populate(w.c, w.entries)
	return err
}

func (w *readWorkload) slice(d time.Duration) *sliceResult {
	res := &sliceResult{}
	path := "/nearest"
	if w.batch {
		path = "/nearest/batch"
	}
	start := time.Now()
	for time.Since(start) < d {
		for i := range w.points {
			w.points[i] = w.queries.Next()
		}
		if w.batch {
			w.body = gen.AppendNearestBatch(w.body[:0], w.points)
		} else {
			w.body = gen.AppendNearest(w.body[:0], w.points[0])
		}
		t0 := time.Now()
		status, resp, err := w.c.do("POST", path, w.body)
		took := time.Since(t0)
		w.tr.add("socket", "", w.sent, 1, t0, t0.Add(took))
		res.attempted++
		w.sent++
		if err != nil || status != http.StatusOK {
			res.fail(fmt.Errorf("POST %s: status %d, err %v", path, status, err))
			if err != nil {
				break // the connection is gone; the slice cannot go on
			}
			continue
		}
		res.lat = append(res.lat, took.Seconds()*1e3)
		res.work += float64(len(w.points))
		if w.batch || w.sent%verifyEvery == 0 {
			at := w.sent % len(w.points)
			w.checks = append(w.checks, readCheck{from: w.points[at], at: at, resp: append([]byte(nil), resp...)})
		}
	}
	res.busy = time.Since(start)
	for _, ck := range w.checks {
		if err := w.verify(ck); err != nil {
			res.fail(err)
		}
	}
	w.checks = w.checks[:0]
	return res
}

// verify compares one set-aside answer with the brute-force oracle.
func (w *readWorkload) verify(ck readCheck) error {
	var got nearestResponse
	if w.batch {
		var all batchResponse
		if err := json.Unmarshal(ck.resp, &all); err != nil {
			return err
		}
		if len(all.Results) != gen.BatchSize {
			return fmt.Errorf("batch answered %d queries, sent %d", len(all.Results), gen.BatchSize)
		}
		got = all.Results[ck.at]
	} else if err := json.Unmarshal(ck.resp, &got); err != nil {
		return err
	}
	return gen.CheckNearest(got.neighbors(), gen.Nearest(w.entries, ck.from, gen.K))
}

func (w *readWorkload) finish() error { return nil }

func (w *readWorkload) close() {
	if w.c != nil {
		w.c.close()
	}
	if w.server != nil {
		w.p.stop(w.server)
	}
	w.c, w.server = nil, nil
}

// ---- write-replicate ----

// writeWorkload is one closed-loop writer on a persistent leader and
// one /watch stream on its follower: cycles of 9 background upserts and
// one probe whose delta the watcher must see.
type writeWorkload struct {
	env

	leader, follower *child
	dir              string
	c                *conn
	writes           *gen.Writes
	events           <-chan watchEvent
	stopWatch        func()
	body             []byte
}

func (w *writeWorkload) setup() error {
	entries := gen.Entries(w.seed, w.size.entries)
	w.writes = gen.NewWrites(w.seed, entries)
	var err error
	if w.dir, err = w.p.tempDir("leader"); err != nil {
		return err
	}
	if w.leader, _, err = w.p.start("leader", w.serverArgs("-data-dir", w.dir)...); err != nil {
		return err
	}
	if w.c, err = dial(w.leader.url); err != nil {
		return err
	}
	seq, err := populate(w.c, entries)
	if err != nil {
		return err
	}
	if w.follower, _, err = w.p.start("follower", w.serverArgs("-upstreams", w.leader.url)...); err != nil {
		return err
	}
	if err := waitHealthy(w.p, w.follower.url, seq, convergeTimeout); err != nil {
		return err
	}
	v := w.writes.Watch.Vec
	path := fmt.Sprintf("/watch?vec=%s,%s,%s&k=%d", ftoa(v[0]), ftoa(v[1]), ftoa(v[2]), gen.K)
	if w.events, w.stopWatch, err = watch(w.follower.url, path); err != nil {
		return err
	}
	select {
	case ev, ok := <-w.events:
		if !ok || ev.err != nil {
			return fmt.Errorf("watch stream ended before its snapshot event: %v", ev.err)
		}
	case <-time.After(convergeTimeout):
		return errors.New("no snapshot event on the watch stream")
	}
	return nil
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func (w *writeWorkload) slice(d time.Duration) *sliceResult {
	res := &sliceResult{}
	start := time.Now()
	for time.Since(start) < d {
		if !w.cycle(res) {
			break
		}
	}
	res.busy = time.Since(start)
	return res
}

// cycle sends 9 background upserts and one probe, and waits for the
// probe's delta. It reports false when the connection is lost.
func (w *writeWorkload) cycle(res *sliceResult) bool {
	for {
		op := w.writes.Next()
		w.body = gen.AppendEntry(w.body[:0], op.Entry)
		t0 := time.Now()
		status, resp, err := w.c.do("POST", "/upsert", w.body)
		acked := time.Now()
		w.tr.add("socket", "", res.attempted, 1, t0, acked)
		res.attempted++
		var ack upsertResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(resp, &ack)
		}
		switch {
		case err != nil || status != http.StatusOK:
			res.fail(fmt.Errorf("POST /upsert: status %d, err %v", status, err))
			return false
		case ack.Degraded != "":
			res.fail(fmt.Errorf("leader persistence degraded: %s", ack.Degraded))
			return false
		}
		res.work++
		res.addAux("ack_us", acked.Sub(t0).Seconds()*1e6)
		if op.Kind != gen.Probe {
			continue
		}
		timeout := time.NewTimer(probeTimeout)
		defer timeout.Stop()
		for {
			select {
			case ev, ok := <-w.events:
				if !ok || ev.err != nil {
					res.fail(fmt.Errorf("watch stream ended: %v", ev.err))
					return false
				}
				if ev.seq < ack.Seq {
					continue // a delta from before this probe
				}
				if ev.hasProbe != op.In {
					res.fail(fmt.Errorf("delta at seq %d has the probe in=%v, written in=%v", ev.seq, ev.hasProbe, op.In))
					return true
				}
				w.tr.add("deliver", "", res.attempted, 1, t0, ev.at)
				res.lat = append(res.lat, ev.at.Sub(t0).Seconds()*1e3)
				return true
			case <-timeout.C:
				res.fail(fmt.Errorf("no delta for the probe at seq %d within %v", ack.Seq, probeTimeout))
				return true
			}
		}
	}
}

// snapshotOf reads a server's full snapshot.
func snapshotOf(url string) (gen.Snapshot, error) {
	var s gen.Snapshot
	err := getJSON(url, "/snapshot", &s)
	return s, err
}

// finish checks that the follower converged to the leader's exact
// state, that both hold what was written, and that nothing was dropped
// or fenced on the way.
func (w *writeWorkload) finish() error {
	var ls serverStats
	if err := getJSON(w.leader.url, "/stats", &ls); err != nil {
		return err
	}
	if err := waitHealthy(w.p, w.follower.url, ls.Seq, convergeTimeout); err != nil {
		return err
	}
	lsnap, err := snapshotOf(w.leader.url)
	if err != nil {
		return err
	}
	fsnap, err := snapshotOf(w.follower.url)
	if err != nil {
		return err
	}
	if err := gen.CompareSnapshots(lsnap, fsnap); err != nil {
		return err
	}
	if err := gen.CheckContent(lsnap, w.writes.Entries); err != nil {
		return err
	}
	for _, c := range []*child{w.leader, w.follower} {
		var st serverStats
		if err := getJSON(c.url, "/stats", &st); err != nil {
			return err
		}
		stale := st.ChangeStream.RejectedStaleEpoch
		if st.Follower != nil {
			stale += st.Follower.RejectedStaleEpoch
		}
		if st.ChangeStream.Overflows != 0 || stale != 0 {
			return fmt.Errorf("%s: overflows=%d rejected_stale_epoch=%d, want 0", c.name, st.ChangeStream.Overflows, stale)
		}
	}
	return nil
}

func (w *writeWorkload) close() {
	if w.stopWatch != nil {
		w.stopWatch()
	}
	if w.c != nil {
		w.c.close()
	}
	if w.follower != nil {
		w.p.stop(w.follower)
	}
	if w.leader != nil {
		w.p.stop(w.leader)
	}
	if w.dir != "" {
		w.p.removeDir(w.dir)
	}
	*w = writeWorkload{env: w.env}
}

// ---- recover ----

// recoverWorkload restarts a persistent leader from a snapshot plus WAL
// tail and then bootstraps a follower from it, once per cycle.
type recoverWorkload struct {
	env

	pristine string
	want     []netcoord.RegistryEntry
	seq      uint64
	query    []byte
	answer   []gen.Neighbor

	// Kept by traced runs for the ladder: the bytes of the leader's
	// binary snapshot and the follower's own bootstrap timing.
	snapshotFrames   []byte
	bootstrapSeconds float64
}

func (w *recoverWorkload) setup() error {
	entries := gen.Entries(w.seed, w.size.entries)
	var err error
	if w.pristine, err = w.p.tempDir("recover-pristine"); err != nil {
		return err
	}
	if w.want, w.seq, err = gen.BuildRecoverDir(w.pristine, w.seed, entries, w.size.recoverTail); err != nil {
		return err
	}
	from := gen.NewQueries(w.seed).Next()
	w.query = gen.AppendNearest(nil, from)
	w.answer = gen.Nearest(w.want, from, gen.K)
	return nil
}

func (w *recoverWorkload) slice(d time.Duration) *sliceResult {
	res := &sliceResult{}
	start := time.Now()
	for done := false; !done; done = time.Since(start) >= d {
		res.attempted++
		rec, boot, err := w.cycle()
		if err != nil {
			res.fail(err)
			continue
		}
		total := rec + boot
		res.busy += total
		// Entries made servable: the leader's and then the follower's.
		res.work += 2 * float64(len(w.want))
		res.lat = append(res.lat, total.Seconds()*1e3)
		res.addAux("recover_s", rec.Seconds())
		res.addAux("bootstrap_s", boot.Seconds())
	}
	return res
}

// cycle times exec → healthy-and-correct for the leader, then exec →
// healthy-and-converged for a follower of it. Each cycle recovers a
// fresh copy of the pristine directory, so every cycle replays the same
// bytes.
func (w *recoverWorkload) cycle() (rec, boot time.Duration, err error) {
	dir, err := w.p.tempDir("recover-run")
	if err != nil {
		return 0, 0, err
	}
	defer w.p.removeDir(dir)
	if err := copyDir(w.pristine, dir); err != nil {
		return 0, 0, err
	}

	leader, started, err := w.p.start("recovering leader", w.serverArgs("-data-dir", dir)...)
	if err != nil {
		return 0, 0, err
	}
	defer w.p.stop(leader)
	if err := w.check(leader.url); err != nil {
		return 0, 0, fmt.Errorf("leader: %w", err)
	}
	rec = time.Since(started)

	follower, started, err := w.p.start("bootstrapping follower", w.serverArgs("-upstreams", leader.url)...)
	if err != nil {
		return 0, 0, err
	}
	defer w.p.stop(follower)
	if err := waitHealthy(w.p, follower.url, w.seq, convergeTimeout); err != nil {
		return 0, 0, err
	}
	boot = time.Since(started)
	w.tr.add("recover", "", 0, 1, started.Add(-rec), started)
	w.tr.add("bootstrap", "", 0, 1, started, started.Add(boot))
	// Off the clock: the follower answers like the leader.
	if err := w.check(follower.url); err != nil {
		return 0, 0, fmt.Errorf("follower: %w", err)
	}
	if w.debug {
		m, err := scrapeMetrics(follower.url)
		if err != nil {
			return 0, 0, err
		}
		w.bootstrapSeconds = m.get("netcoord_follower_last_bootstrap_seconds")
		if _, w.snapshotFrames, err = getOnce(leader.url, "/snapshot?format=frames"); err != nil {
			return 0, 0, err
		}
	}
	return rec, boot, nil
}

// check requires a server to be healthy, to answer the fixed query as
// the oracle does over the pre-restart content, and to hold every entry.
func (w *recoverWorkload) check(url string) error {
	c, err := dial(url)
	if err != nil {
		return err
	}
	defer c.close()
	if status, body, err := c.do("GET", "/healthz", nil); err != nil || status != http.StatusOK {
		return fmt.Errorf("/healthz: status %d, err %v: %s", status, err, body)
	}
	status, body, err := c.do("POST", "/nearest", w.query)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("/nearest: status %d, err %v", status, err)
	}
	var got nearestResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if err := gen.CheckNearest(got.neighbors(), w.answer); err != nil {
		return err
	}
	status, body, err = c.do("GET", "/stats", nil)
	var st serverStats
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		return fmt.Errorf("/stats: status %d, err %v", status, err)
	}
	if st.Registry.Entries != len(w.want) || st.Seq != w.seq {
		return fmt.Errorf("serving %d entries at seq %d, want %d at %d", st.Registry.Entries, st.Seq, len(w.want), w.seq)
	}
	return nil
}

func (w *recoverWorkload) finish() error { return nil }

func (w *recoverWorkload) close() {
	if w.pristine != "" {
		w.p.removeDir(w.pristine)
		w.pristine = ""
	}
}

// ---- sim-paper ----

// simWorkload repeats the paper's evaluation loop in process through
// the public Simulate facade, with the deployed configuration
// (MP(4,25) filter, ENERGY heuristic).
type simWorkload struct {
	env
	ref netcoord.SimulationResult
}

func (w *simWorkload) config(parallelism int) netcoord.SimulationConfig {
	return netcoord.SimulationConfig{
		Nodes:       w.size.simNodes,
		Seconds:     w.size.simSeconds,
		Seed:        w.seed,
		Parallelism: parallelism,
	}
}

// setup produces the reference result every measured run must repeat
// bit for bit, and holds it against the stored golden when the seed has
// one.
func (w *simWorkload) setup() error {
	var err error
	if w.ref, err = netcoord.Simulate(w.config(0)); err != nil {
		return err
	}
	if w.ref.Samples == 0 || !(w.ref.App.MedianRelErr > 0) || !(w.ref.App.MedianInstability >= 0) {
		return fmt.Errorf("degenerate simulation result %+v", w.ref)
	}
	if w.size != fullSize {
		return nil
	}
	if g, ok := simGoldens[w.seed]; ok {
		if math.Abs(g.relErr-w.ref.App.MedianRelErr) > exactTolerance || math.Abs(g.instability-w.ref.App.MedianInstability) > exactTolerance {
			return fmt.Errorf("seed %d: rel err %.12g, instability %.12g ms/s; golden %.12g, %.12g",
				w.seed, w.ref.App.MedianRelErr, w.ref.App.MedianInstability, g.relErr, g.instability)
		}
	}
	return nil
}

func (w *simWorkload) slice(d time.Duration) *sliceResult {
	res := &sliceResult{exact: map[string]float64{
		"sim_rel_err_p50":      w.ref.App.MedianRelErr,
		"sim_instability_ms_s": w.ref.App.MedianInstability,
	}}
	start := time.Now()
	for done := false; !done; done = time.Since(start) >= d {
		res.attempted++
		t0 := time.Now()
		got, err := netcoord.Simulate(w.config(0))
		took := time.Since(t0)
		w.tr.add("sim.run", "", res.attempted, 1, t0, t0.Add(took))
		if err != nil {
			res.fail(err)
			continue
		}
		if got != w.ref {
			res.fail(fmt.Errorf("run differs from the reference run: %+v vs %+v", got, w.ref))
			continue
		}
		res.busy += took
		res.work += float64(got.Samples)
		res.lat = append(res.lat, took.Seconds()*1e3)
	}
	return res
}

// finish repeats the run on the sequential engine: the result must not
// depend on how many workers replay the trace.
func (w *simWorkload) finish() error {
	got, err := netcoord.Simulate(w.config(1))
	if err != nil {
		return err
	}
	if got != w.ref {
		return fmt.Errorf("sequential engine differs from the parallel one: %+v vs %+v", got, w.ref)
	}
	return nil
}

func (w *simWorkload) close() {}

// simGolden is the paper-metric pair a seed must reproduce at full size.
type simGolden struct{ relErr, instability float64 }
