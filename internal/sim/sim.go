// Package sim is the deterministic trace-driven simulator: the
// counterpart of the simulator the paper built to compare Vivaldi
// configurations on the same input ("we built a simulator that accepted
// our raw ping trace as input and mimicked the distributed behavior of
// Vivaldi").
//
// A Runner hosts one endpoint.Endpoint per node — the observation
// pipeline (filter, nearest neighbor, Vivaldi, application-update policy)
// that the live node and netcoord.Client also run — and replays a
// trace.Source through them. What is the simulator's own is the
// tick-start snapshot remotes are read from and the metrics: for every
// observation it records the system- and application-level relative
// error as predicted before the update, as the paper does, and the
// coordinate displacement at both levels.
//
// # Tick-barrier semantics
//
// Remote state is read through a per-node published snapshot that is
// refreshed at tick boundaries: when a sample at tick T+1 first arrives,
// every node whose state changed during tick T republishes its system
// coordinate, error weight, and application coordinate. Within a tick,
// every observation therefore sees the remote as it stood when the tick
// began — which is also the faithful model of a distributed deployment,
// where a pong carries whatever state the remote had when it replied,
// not the state after updates that happen to be processed earlier in the
// same simulated second.
//
// It also makes the result independent of the order in which a tick's
// samples arrive, as long as each node samples at most once in the tick:
// a sample mutates only its From node, and every remote read comes from
// the frozen snapshot (TestTickOrderIndependence).
//
// # Determinism
//
// Because trace generation and every node's randomness are seeded, two
// runners fed identically configured generators process bit-identical
// observation streams, which is how the experiments compare filters the
// way the paper compares them ("we ran them on the same set of PlanetLab
// nodes at the same time, using different ports"). Every Step of a run
// happens on the caller's goroutine, in trace order; Run only reads the
// source a few blocks ahead on a second goroutine, and Summarize reads
// the two finished collectors on two. Nothing else is concurrent, so no
// result depends on GOMAXPROCS or scheduling (TestRunEqualsStepLoop).
// Callers that want more cores than that run whole simulations side by
// side (experiments.sweep).
//
// # Synthetic runs
//
// Every synthetic run in the repository — netcoord.Simulate, each
// experiment, cmd/ncsim and cmd/ncgen, the overlay and changedetect
// examples — is a Recipe. A recipe takes one seed s: the network is
// seeded with s, the trace generator with s+1 and Vivaldi with s+2, and
// the network is netsim.DefaultWideArea unless the recipe names another
// base or edits it. Recipe is therefore the one place to change the
// network those runs replay.
//
// # Allocation discipline
//
// A steady-state Step performs zero heap allocations: Endpoint.Observe
// allocates nothing, and metric storage can be pre-sized with the
// Expected* hints. This is what turns the reproduction loop from GC-bound
// into CPU-bound.
package sim

import (
	"errors"
	"fmt"
	"math"

	"netcoord/internal/coord"
	"netcoord/internal/endpoint"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/metrics"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
	"netcoord/internal/xrand"
)

// PolicyFactory builds one application-update policy for a node.
type PolicyFactory func(dim int) (heuristic.Policy, error)

// Config parameterizes a simulation run.
type Config struct {
	// Nodes is the number of simulated hosts; must cover every node id
	// in the trace.
	Nodes int
	// Vivaldi configures every node's update algorithm; the per-node RNG
	// seed is derived from Vivaldi.Seed and the node id.
	Vivaldi vivaldi.Config
	// Filter builds each node's per-link filter; nil means no filtering
	// (the paper's "No Filter" configuration).
	Filter filter.Factory
	// Policy builds each node's application-update policy; nil means
	// Direct (application coordinate follows the system coordinate).
	Policy PolicyFactory
	// Parallelism is ignored: Run steps samples on the caller's
	// goroutine and reads the source on one more, whatever its value.
	//
	// Deprecated: the field stays only because bench/ncload still sets
	// it; it goes when a benchmark issue stops doing so.
	Parallelism int
	// ExpectedTicks and ExpectedSamplesPerNode pre-size metric storage
	// so steady-state recording allocates nothing. Zero values grow on
	// demand; underestimates only cost the growth allocations back.
	ExpectedTicks          uint64
	ExpectedSamplesPerNode int
}

// Runner executes a simulation.
type Runner struct {
	nodes []*nodeState
	sys   *metrics.Collector
	app   *metrics.Collector

	samples uint64
	lost    uint64

	// cur is the latest tick seen, whose snapshot is the one published;
	// dirty lists the nodes that must republish at the next tick boundary.
	cur     uint64
	dirty   []int
	isDirty []bool
}

// nodeState is one simulated host: its observation pipeline and the
// tick-start snapshot remote peers observe until the next tick boundary.
// Only the runner's publish step writes the snapshot.
type nodeState struct {
	ep     *endpoint.Endpoint[int]
	pubSys coord.Coordinate
	pubErr float64
	pubApp coord.Coordinate
}

// NewRunner builds a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("sim: %d nodes, want >= 2", cfg.Nodes)
	}
	sys, err := metrics.NewCollector(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	app, err := metrics.NewCollector(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if cfg.ExpectedTicks > 0 || cfg.ExpectedSamplesPerNode > 0 {
		sys.Reserve(cfg.ExpectedTicks, cfg.ExpectedSamplesPerNode)
		app.Reserve(cfg.ExpectedTicks, cfg.ExpectedSamplesPerNode)
	}
	r := &Runner{
		sys:     sys,
		app:     app,
		nodes:   make([]*nodeState, cfg.Nodes),
		dirty:   make([]int, 0, cfg.Nodes),
		isDirty: make([]bool, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		vcfg := cfg.Vivaldi
		vcfg.Seed = xrand.Hash64(cfg.Vivaldi.Seed, uint64(i))
		var policy heuristic.Policy
		if cfg.Policy != nil {
			if policy, err = cfg.Policy(vcfg.Dimension); err != nil {
				return nil, fmt.Errorf("sim node %d policy: %w", i, err)
			}
		}
		ep, err := endpoint.New[int](vcfg, filter.NewDense(cfg.Filter, cfg.Nodes), policy)
		if err != nil {
			return nil, fmt.Errorf("sim node %d: %w", i, err)
		}
		// Initial snapshot: every node publishes its starting state
		// before the first tick.
		r.nodes[i] = &nodeState{
			ep:     ep,
			pubSys: ep.Sys().Clone(),
			pubErr: ep.Error(),
			pubApp: ep.App().Clone(),
		}
	}
	return r, nil
}

// errSelfSample is package-level so the per-sample check path returns
// it without allocating.
var errSelfSample = errors.New("sim: self-sample")

// check validates a sample's node references.
func (r *Runner) check(s trace.Sample) error {
	if s.From < 0 || s.From >= len(r.nodes) || s.To < 0 || s.To >= len(r.nodes) {
		//nc:allow(hotpath) malformed-trace return: cold by definition
		return fmt.Errorf("sim: sample references node outside [0, %d): %+v", len(r.nodes), s)
	}
	if s.From == s.To {
		return errSelfSample
	}
	return nil
}

// publish refreshes the published snapshot of every node updated since
// the last boundary.
func (r *Runner) publish() {
	for _, i := range r.dirty {
		n := r.nodes[i]
		n.pubSys.CopyFrom(n.ep.Sys())
		n.pubErr = n.ep.Error()
		n.pubApp.CopyFrom(n.ep.App())
		r.isDirty[i] = false
	}
	r.dirty = r.dirty[:0]
}

// markDirty queues a node for republication at the next tick boundary.
func (r *Runner) markDirty(i int) {
	if !r.isDirty[i] {
		r.isDirty[i] = true
		r.dirty = append(r.dirty, i)
	}
}

// Step processes one trace sample under tick-barrier semantics: hand the
// raw observation to the From node's endpoint with the To node's
// tick-start snapshot as the remote, then record what the endpoint
// reports — both relative errors against the raw observation as predicted
// before the update (paper Section II-A), and both displacements once the
// filter releases. It mutates only the sample's From node and performs
// zero heap allocations on the success path.
//
//nc:hotpath
func (r *Runner) Step(s trace.Sample) error {
	if err := r.check(s); err != nil {
		return err
	}
	// A later tick publishes the tick-boundary snapshot first.
	if s.Tick > r.cur {
		r.publish()
		r.cur = s.Tick
	}
	r.samples++
	if s.Lost {
		r.lost++
		return nil
	}
	src := r.nodes[s.From]
	dst := r.nodes[s.To]

	appEst, err := src.ep.App().DistanceTo(dst.pubApp)
	if err != nil {
		//nc:allow(hotpath) estimate-failure return: cold by definition
		return fmt.Errorf("sim: app estimate: %w", err)
	}
	res, err := src.ep.Observe(s.To, s.RTT, dst.pubSys, dst.pubErr)
	if err != nil {
		//nc:allow(hotpath) refused-sample return: cold by definition
		return fmt.Errorf("sim: observe: %w", err)
	}
	if err := r.sys.RecordError(s.From, s.Tick, math.Abs(res.Predicted-s.RTT)/s.RTT); err != nil {
		return err
	}
	if err := r.app.RecordError(s.From, s.Tick, math.Abs(appEst-s.RTT)/s.RTT); err != nil {
		return err
	}
	// A warming-up filter withholds the Vivaldi update entirely.
	if !res.Released {
		return nil
	}
	if err := r.sys.RecordMovement(s.From, s.Tick, res.SysMoved, res.SysMoved > 0); err != nil {
		return err
	}
	r.markDirty(s.From)
	return r.app.RecordMovement(s.From, s.Tick, res.AppMoved, res.AppChanged)
}

// blockSamples is how many samples the reader hands Step at a time, and
// runBlocks how many such blocks one Run owns: one being stepped, one
// being filled, one spare so neither side waits on the other's jitter.
// Every Run pays for its blocks (120 KB here) and for filling the first
// one before it can Step, which is what a sweep of short runs feels:
// BenchmarkSweepGrid (7 200 samples a run) at -cpu 2 read 10 % slower
// than the sequential loop with 4096-sample blocks and level with it at
// 1024, while the paper-scale run did not tell the two sizes apart.
const (
	blockSamples = 1024
	runBlocks    = 3
)

// Run drains a trace source through the runner, one Step per sample in
// trace order on the caller's goroutine. A reader goroutine pulls the
// source up to runBlocks blocks of blockSamples ahead of Step, so trace
// synthesis overlaps stepping when a second processor is free. Run stops
// and joins its reader before it returns, on every path (end of trace,
// Step error, panic), so nothing touches src after Run returns — a
// trace.Reader's Err can be read then. After an error the runner's state
// and the source's position are undefined and the run must be discarded.
func (r *Runner) Run(src trace.Source) error {
	// Both channels hold at most runBlocks blocks, all there are, so no
	// send on either ever blocks.
	free := make(chan []trace.Sample, runBlocks)
	full := make(chan []trace.Sample, runBlocks)
	stop := make(chan struct{})
	for i := 0; i < runBlocks; i++ {
		free <- make([]trace.Sample, 0, blockSamples)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var b []trace.Sample
			select {
			case b = <-free:
			case <-stop:
				return
			}
			b = b[:0]
			for len(b) < blockSamples {
				s, ok := src.Next()
				if !ok {
					break
				}
				b = append(b, s)
			}
			full <- b
			if len(b) < blockSamples {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for {
		// A short block, possibly empty, is the last one.
		b := <-full
		for _, s := range b {
			if err := r.Step(s); err != nil {
				return err
			}
		}
		if len(b) < blockSamples {
			return nil
		}
		free <- b
	}
}

// Summarize summarizes the system and application collectors over
// [from, to], the two side by side on two goroutines. The collectors
// are only read, so call it once the run is over.
func (r *Runner) Summarize(from, to uint64) (sys, app metrics.Summary, err error) {
	var sysErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys, sysErr = r.sys.Summarize(from, to)
	}()
	app, err = r.app.Summarize(from, to)
	<-done
	if sysErr != nil {
		err = sysErr
	}
	if err != nil {
		return metrics.Summary{}, metrics.Summary{}, err
	}
	return sys, app, nil
}

// Sys returns the system-level metrics collector.
func (r *Runner) Sys() *metrics.Collector { return r.sys }

// App returns the application-level metrics collector.
func (r *Runner) App() *metrics.Collector { return r.app }

// Samples reports how many trace samples were processed (including lost
// ones).
func (r *Runner) Samples() uint64 { return r.samples }

// Lost reports how many samples were lost pings.
func (r *Runner) Lost() uint64 { return r.lost }

// LastTick reports the latest tick seen.
func (r *Runner) LastTick() uint64 { return r.cur }

// Coordinate returns node i's current system-level coordinate.
func (r *Runner) Coordinate(i int) (coord.Coordinate, error) {
	if i < 0 || i >= len(r.nodes) {
		return coord.Coordinate{}, fmt.Errorf("sim: node %d out of range", i)
	}
	return r.nodes[i].ep.Sys().Clone(), nil
}

// AppCoordinate returns node i's current application-level coordinate.
func (r *Runner) AppCoordinate(i int) (coord.Coordinate, error) {
	if i < 0 || i >= len(r.nodes) {
		return coord.Coordinate{}, fmt.Errorf("sim: node %d out of range", i)
	}
	return r.nodes[i].ep.App().Clone(), nil
}

// Confidence returns node i's confidence (1 - error weight), the
// quantity plotted in the paper's Figure 6.
func (r *Runner) Confidence(i int) (float64, error) {
	if i < 0 || i >= len(r.nodes) {
		return 0, fmt.Errorf("sim: node %d out of range", i)
	}
	return 1 - r.nodes[i].ep.Error(), nil
}
