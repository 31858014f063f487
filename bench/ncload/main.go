// Command ncload is the repository's end-to-end benchmark: one seeded,
// single-process load generator that drives real ncserve processes over
// loopback sockets (an in-memory leader; a persistent leader and its
// follower) and the public netcoord.Simulate facade, checks the answers
// it gets, and prints every metric by name with its unit.
//
// Run it from the bench/ directory:
//
//	go run ./ncload -workload read-knn -seed 1 -seconds 10     one workload, end-to-end metrics
//	go run ./ncload -workload read-knn -seed 1 -trace 1        the same workload's per-layer metrics
//	go run ./ncload -seed 1 -out results/run.json              all workloads, slices interleaved, then the traced pass
//	go run ./ncload -compare old.json new.json                 judge two reports by the benchmark's bounds
//
// The last line of standard output of a one-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See
// bench/README.md for the workloads, the metrics and how they interact.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one metric the way BENCHMARK.json does.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the end-to-end metrics every workload reports: the
// flat list BENCHMARK.json gives the driver, which also holds their
// bounds. What a metric counts on each workload is fixed in
// bench/README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
}

// workloadMetric is an end-to-end metric that exists on some workloads
// only. The driver's flat list cannot hold it, so its bound lives here:
// every untraced run reports it and -compare gates it like the others.
type workloadMetric struct {
	metricSpec
	// Bound is the share of the old value by which the metric may worsen;
	// 0 marks a result that is deterministic for a seed and must repeat
	// to 1e-9. The bounds follow from the ten-run spreads in
	// bench/README.md.
	Bound float64
	On    []string
	// from names the statistic of pooled the metric is taken from, and
	// scale converts that statistic's unit into the metric's.
	from  string
	scale float64
}

// workloadMetrics are the names of ISSUE 11 that are not one of the four
// generic metrics under another name (query_rps, deliver_p50_us and
// sim_samples_per_s are ops_per_s, latency_p50_ms and ops_per_s).
var workloadMetrics = []workloadMetric{
	{metricSpec{"query_p99_us", "us", "lower"}, 0.25, []string{"read-knn", "read-batch"}, "latency_p99_ms", 1e3},
	{metricSpec{"upsert_p50_us", "us", "lower"}, 0.20, []string{"write-replicate"}, "ack_us_p50", 1},
	{metricSpec{"upsert_p99_us", "us", "lower"}, 0.30, []string{"write-replicate"}, "ack_us_p99", 1},
	{metricSpec{"deliver_p99_us", "us", "lower"}, 0.50, []string{"write-replicate"}, "latency_p99_ms", 1e3},
	{metricSpec{"recover_s", "s", "lower"}, 0.20, []string{"recover"}, "recover_s_p50", 1},
	{metricSpec{"bootstrap_s", "s", "lower"}, 0.20, []string{"recover"}, "bootstrap_s_p50", 1},
	{metricSpec{"sim_rel_err_p50", "ratio", "lower"}, 0, []string{"sim-paper"}, "sim_rel_err_p50", 1},
	{metricSpec{"sim_instability_ms_s", "ms/s", "lower"}, 0, []string{"sim-paper"}, "sim_instability_ms_s", 1},
}

// exactTolerance is how far a deterministic metric may move between two
// runs of one seed.
const exactTolerance = 1e-9

// failedLatencyMs is the latency charged to an operation that failed:
// it has no sample of its own, and must not improve a percentile.
const failedLatencyMs = float64(requestTimeout / time.Millisecond)

// metricReport is one metric of one workload.
type metricReport struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Slices holds the metric computed on each slice alone (for setup_s,
	// each set-up); Median, Q1 and Q3 summarise them, for information.
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Slices []float64 `json:"slices,omitempty"`
	// Spread is the interquartile range over the median of the slices
	// Value was pooled from: how far Value itself can be trusted.
	Spread float64 `json:"spread"`
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Correct   bool   `json:"correct"`
	Error     string `json:"error,omitempty"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Samples   int    `json:"latency_samples"`
	// EndToEnd holds the four generic metrics and the workload's own.
	EndToEnd map[string]*metricReport `json:"end_to_end,omitempty"`
	Info     map[string]*metricReport `json:"info,omitempty"`
	PerLayer map[string]*metricReport `json:"per_layer,omitempty"`

	setups []float64
	slices []*sliceResult
}

// report is the file a full run writes and -compare reads.
type report struct {
	Env          envInfo                    `json:"env"`
	Seed         uint64                     `json:"seed"`
	Rounds       int                        `json:"rounds"`
	SliceSeconds float64                    `json:"slice_seconds"`
	Workloads    map[string]*workloadReport `json:"workloads"`
}

// envInfo records where the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // ncload's; ncserve children run with their default, which is nproc
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Size       string `json:"size"`
}

func readEnv(smoke bool) envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown", Size: "full"}
	if smoke {
		e.Size = "smoke"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the benchmark driver's copy) there is no
	// commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func main() { os.Exit(run(os.Args[1:])) }

// specPath is BENCHMARK.json as seen from bench/, where ncload runs.
const specPath = "../BENCHMARK.json"

func run(args []string) (code int) {
	fs := flag.NewFlagSet("ncload", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload and print its result line; empty runs all of them, interleaved")
		seed         = fs.Uint64("seed", 1, "seed of every generated input")
		seconds      = fs.Int("seconds", 10, "measured seconds of a one-workload run")
		out          = fs.String("out", "", "write the run's report to this file")
		work         = fs.String("work", "", "scratch directory for the ncserve binary, data directories and trace.json (default: a temporary directory, removed on exit)")
		smoke        = fs.Bool("smoke", false, "toy sizes: 2k entries, 16-node 240-s simulation")
		compare      = fs.Bool("compare", false, "compare two report files: ncload -compare old.json new.json")
		traced       bool
	)
	// The driver writes "--trace 0" and "--trace 1", which a boolean flag
	// would not parse: it takes no separate argument.
	fs.Func("trace", "0 or 1; 1 makes a one-workload run the traced pass: per-layer metrics instead of end-to-end ones", func(v string) (err error) {
		traced, err = strconv.ParseBool(v)
		return err
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: ncload -compare old.json new.json")
			return 2
		}
		return compareReports(os.Stdout, specPath, fs.Arg(0), fs.Arg(1))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	p, err := newProcs(ctx, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncload:", err)
		return 1
	}
	// Children and scratch directories go away on every way out: a
	// normal return, a panic (the deferred close runs, then the panic
	// continues), and SIGINT/SIGTERM (the watcher below).
	defer p.close()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "ncload: interrupted; stopping children")
			p.close()
			os.Exit(130)
		case <-finished:
		}
	}()

	e := env{p: p, seed: *seed, size: fullSize}
	if *smoke {
		e.size = smokeSize
	}
	info := readEnv(*smoke)
	fmt.Printf("ncload: seed %d, %s size, nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n",
		*seed, info.Size, info.NProc, info.GOMAXPROCS, info.GoVersion, info.CPU, info.Commit)

	if *workloadName != "" {
		d := time.Duration(*seconds) * time.Second
		var rep *workloadReport
		if traced {
			rep = runTraced(*workloadName, e, d)
		} else {
			rep = runOne(*workloadName, e, d)
		}
		printWorkload(*workloadName, rep)
		if err := p.err(); err != nil {
			rep.Correct, rep.Error = false, err.Error()
		}
		if rep.Error != "" {
			fmt.Fprintln(os.Stderr, "ncload:", rep.Error)
		}
		if rep.Attempted == 0 {
			return 1 // nothing ran: there is no result to print
		}
		one := &report{Env: info, Seed: *seed, Rounds: len(rep.slices), SliceSeconds: driverSlice.Seconds(), Workloads: map[string]*workloadReport{*workloadName: rep}}
		if err := writeReport(*out, one); err != nil {
			fmt.Fprintln(os.Stderr, "ncload:", err)
			return 1
		}
		if traced {
			printResultLine(rep, perLayer, rep.PerLayer)
		} else {
			printResultLine(rep, endToEnd, rep.EndToEnd)
		}
		return 0
	}

	full := runAll(e, info, fullRounds, fullSlice)
	if err := writeReport(*out, full); err != nil {
		fmt.Fprintln(os.Stderr, "ncload:", err)
		return 1
	}
	for _, name := range workloadNames {
		if w := full.Workloads[name]; w == nil || !w.Correct || w.Failed > 0 {
			return 1
		}
	}
	return 0
}

// writeReport writes a report where -out says; without -out it does nothing.
func writeReport(path string, r *report) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResultLine prints the one-line JSON result of a one-workload
// run: the metrics BENCHMARK.json declares for this kind of run, and no
// others.
func printResultLine(rep *workloadReport, declared []metricSpec, metrics map[string]*metricReport) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]valueUnit{}}
	for _, spec := range declared {
		if m := metrics[spec.Name]; m != nil {
			line.Metrics[spec.Name] = valueUnit{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		// A NaN or infinity got into a metric: that is a bug in ncload,
		// and an honest failure beats a malformed line.
		fmt.Fprintln(os.Stderr, "ncload: result not encodable:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// The shape of a run. A one-workload run, which is what the driver
// invokes, cuts --seconds into pieces of driverSlice: short, so that a
// run of a few seconds still holds several chances of a quiet slice. The
// full run interleaves fullRounds slices of fullSlice per workload. The
// bounds were derived from runs of these shapes, so they are not flags.
const (
	setupsPerRun = 3 // setup_s is the median; the last set-up is the one measured
	driverSlice  = time.Second
	fullRounds   = 6
	fullSlice    = 4 * time.Second
)

// declaredFor lists the end-to-end metrics an untraced run of a
// workload reports: the generic ones, then the workload's own.
func declaredFor(workload string) []metricSpec {
	specs := slices.Clone(endToEnd)
	for _, wm := range workloadMetrics {
		if slices.Contains(wm.On, workload) {
			specs = append(specs, wm.metricSpec)
		}
	}
	return specs
}

// setUp makes a workload ready setupsPerRun times, recording how long
// each took, and returns the last one warmed up; nil when set-up failed,
// with the reason in rep.
func setUp(name string, e env, rep *workloadReport) workload {
	for i := 1; ; i++ {
		w, err := newWorkload(name, e)
		if err != nil {
			rep.Error = err.Error()
			return nil
		}
		cal, start := newCalibrator(), time.Now()
		err = w.setup()
		took := time.Since(start).Seconds()
		rep.setups = append(rep.setups, took*cal.speed())
		if err != nil {
			w.close()
			rep.Error = "set-up: " + err.Error()
			return nil
		}
		if i == setupsPerRun {
			w.slice(e.size.warm)
			return w
		}
		w.close()
	}
}

// runOne is the untraced one-workload run: set up, warm up, measure d
// in slices, check.
func runOne(name string, e env, d time.Duration) *workloadReport {
	rep := &workloadReport{}
	w := setUp(name, e, rep)
	if w == nil {
		return rep
	}
	defer w.close()
	n := max(1, int(d/driverSlice))
	stolen, start := stolenSeconds(), time.Now()
	cal := newCalibrator()
	for i := 0; i < n; i++ {
		rep.slices = append(rep.slices, cal.slice(w, d/time.Duration(n)))
	}
	stolenPct := (stolenSeconds() - stolen) / time.Since(start).Seconds() * 100
	rep.summarise(name, w.finish())
	// How much of the measured window the hypervisor took away: a run
	// with more than a few percent here was measured on a disturbed box.
	rep.Info["stolen_cpu_pct"] = &metricReport{Value: stolenPct, Unit: "%"}
	return rep
}

// sliceSpread says how noisy the box was during a run: the gap between
// the best slice and the median one, on the headline metric.
func sliceSpread(opsPerS *metricReport) float64 {
	best := slices.Max(opsPerS.Slices)
	return (best - opsPerS.Median) / best
}

// runAll is the full run: every workload set up, then rounds of one
// slice per workload in fixed order — so a noisy minute is shared by all
// workloads instead of landing on one — then the checks, then the
// traced pass. The smoke test runs it with one short round.
func runAll(e env, info envInfo, rounds int, sliceDur time.Duration) *report {
	full := &report{Env: info, Seed: e.seed, Rounds: rounds, SliceSeconds: sliceDur.Seconds(), Workloads: map[string]*workloadReport{}}
	live := map[string]workload{}
	for _, name := range workloadNames {
		rep := &workloadReport{}
		full.Workloads[name] = rep
		if w := setUp(name, e, rep); w != nil {
			live[name] = w
		}
	}
	cal := newCalibrator()
	for r := 0; r < rounds; r++ {
		for _, name := range workloadNames {
			if w := live[name]; w != nil {
				full.Workloads[name].slices = append(full.Workloads[name].slices, cal.slice(w, sliceDur))
			}
		}
	}
	for _, name := range workloadNames {
		rep := full.Workloads[name]
		if w := live[name]; w != nil {
			rep.summarise(name, w.finish())
			w.close()
		}
		if err := e.p.err(); err != nil && rep.Error == "" {
			rep.Correct, rep.Error = false, err.Error()
		}
		printWorkload(name, rep)
	}
	for _, name := range workloadNames {
		traced := runTraced(name, e, sliceDur)
		rep := full.Workloads[name]
		rep.PerLayer = traced.PerLayer
		if traced.Error != "" && rep.Error == "" {
			rep.Correct, rep.Error = false, "traced pass: "+traced.Error
		}
		if e2e := rep.EndToEnd["ops_per_s"]; e2e != nil && rep.PerLayer != nil {
			rep.PerLayer["ncload.slice_spread"] = &metricReport{Value: sliceSpread(e2e), Unit: "ratio"}
		}
		printLayers(name, traced)
	}
	return full
}

// pooled computes every statistic over a set of slices taken together:
// the rate is their work over their busy time, the percentiles are over
// their samples in one pool. Every time is scaled by its slice's speed
// factor (see calibrate.go); "speed" is the factor of the set as a whole,
// so a reader can turn any value back into wall-clock time. Failed
// operations count as the slowest.
func pooled(ss []*sliceResult) map[string]float64 {
	var work, busy, wall float64
	var lat []float64
	aux := map[string][]float64{}
	out := map[string]float64{}
	for _, s := range ss {
		speed := s.speed
		if speed == 0 {
			speed = 1
		}
		work += s.work
		wall += s.busy.Seconds()
		busy += s.busy.Seconds() * speed
		for _, x := range s.lat {
			lat = append(lat, x*speed)
		}
		for i := 0; i < s.failed; i++ {
			lat = append(lat, failedLatencyMs)
		}
		for name, xs := range s.aux {
			for _, x := range xs {
				aux[name] = append(aux[name], x*speed)
			}
		}
		maps.Copy(out, s.exact)
	}
	if len(lat) == 0 || busy <= 0 {
		return nil
	}
	lat = sorted(lat)
	out["ops_per_s"] = work / busy
	out["latency_p50_ms"] = percentile(lat, 50)
	out["latency_p90_ms"] = percentile(lat, 90)
	out["latency_p95_ms"] = percentile(lat, 95)
	out["latency_p99_ms"] = percentile(lat, 99)
	out["speed"] = busy / wall
	for name, xs := range aux {
		xs = sorted(xs)
		out[name+"_p50"] = percentile(xs, 50)
		out[name+"_p99"] = percentile(xs, 99)
	}
	return out
}

// summarise turns the collected slices into the end-to-end metrics of
// the named workload. On a shared box interference only ever slows a
// slice down, in episodes of seconds to tens of seconds, so a run
// reports its quieter half: the half of its slices with the highest rate
// are kept, and every metric is computed over the kept slices pooled
// (bench/README.md has the measurements behind that rule). Beside each
// metric go its values on every slice alone, their quartiles, and the
// spread of the kept slices. setup_s is the median of the set-ups.
func (rep *workloadReport) summarise(workload string, finishErr error) {
	var measured []*sliceResult
	alone := map[*sliceResult]map[string]float64{}
	for _, s := range rep.slices {
		rep.Attempted += s.attempted
		rep.Failed += s.failed
		rep.Samples += len(s.lat)
		if s.firstErr != nil && rep.Error == "" {
			rep.Error = s.firstErr.Error()
		}
		if m := pooled([]*sliceResult{s}); m != nil {
			measured = append(measured, s)
			alone[s] = m
		}
	}
	kept := slices.Clone(measured)
	slices.SortStableFunc(kept, func(a, b *sliceResult) int { return cmp.Compare(alone[b]["ops_per_s"], alone[a]["ops_per_s"]) })
	kept = kept[:(len(kept)+1)/2]
	quiet := pooled(kept)
	metric := func(stat, unit string, scale float64) *metricReport {
		values := func(ss []*sliceResult) []float64 {
			var xs []float64
			for _, s := range ss {
				if v, ok := alone[s][stat]; ok {
					xs = append(xs, v*scale)
				}
			}
			return xs
		}
		return newMetric(quiet[stat]*scale, unit, values(measured), values(kept))
	}

	rep.EndToEnd = map[string]*metricReport{}
	rep.Info = map[string]*metricReport{}
	if len(rep.setups) > 0 {
		rep.EndToEnd["setup_s"] = newMetric(median(rep.setups), "s", rep.setups, rep.setups)
	}
	reported := map[string]bool{}
	for _, spec := range endToEnd {
		if _, ok := quiet[spec.Name]; ok {
			rep.EndToEnd[spec.Name] = metric(spec.Name, spec.Unit, 1)
			reported[spec.Name] = true
		}
	}
	for _, wm := range workloadMetrics {
		if _, ok := quiet[wm.from]; ok && slices.Contains(wm.On, workload) {
			rep.EndToEnd[wm.Name] = metric(wm.from, wm.Unit, wm.scale)
			reported[wm.from] = true
		}
	}
	for stat := range quiet {
		if !reported[stat] {
			rep.Info[stat] = metric(stat, "", 1)
		}
	}
	if finishErr != nil && rep.Error == "" {
		rep.Error = "check: " + finishErr.Error()
	}
	rep.Correct = rep.Error == "" && rep.Failed == 0 && len(rep.EndToEnd) == len(declaredFor(workload))
}

// newMetric reports value beside the per-slice values it summarises and
// the spread of the ones it was pooled from.
func newMetric(value float64, unit string, all, pooledFrom []float64) *metricReport {
	q1, q2, q3 := value, value, value
	if len(all) > 0 {
		q1, q2, q3 = quartiles(all)
	}
	return &metricReport{Value: value, Unit: unit, Median: q2, Q1: q1, Q3: q3, Slices: all, Spread: spread(pooledFrom)}
}

func printWorkload(name string, rep *workloadReport) {
	fmt.Printf("\n%s: attempted %d, failed %d, latency samples %d, correct %v\n", name, rep.Attempted, rep.Failed, rep.Samples, rep.Correct)
	for _, spec := range declaredFor(name) {
		if m := rep.EndToEnd[spec.Name]; m != nil {
			fmt.Printf("  %-28s %14.6g %-5s (slices: q1 %.6g, median %.6g, q3 %.6g, n %d)\n", spec.Name, m.Value, m.Unit, m.Q1, m.Median, m.Q3, len(m.Slices))
		}
	}
	for _, stat := range sortedKeys(rep.Info) {
		m := rep.Info[stat]
		fmt.Printf("  %-28s %14.6g       (info; q1 %.6g, q3 %.6g)\n", stat, m.Value, m.Q1, m.Q3)
	}
	if rep.PerLayer != nil {
		printLayers(name, rep)
	}
}

func printLayers(name string, rep *workloadReport) {
	fmt.Printf("\n%s: per-layer metrics (traced pass)\n", name)
	for _, spec := range perLayer {
		if m := rep.PerLayer[spec.Name]; m != nil {
			fmt.Printf("  %-36s %14.6g %s\n", spec.Name, m.Value, spec.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
