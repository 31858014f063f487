// Package sim is the deterministic trace-driven simulator: the
// counterpart of the simulator the paper built to compare Vivaldi
// configurations on the same input ("we built a simulator that accepted
// our raw ping trace as input and mimicked the distributed behavior of
// Vivaldi").
//
// A Runner hosts one Vivaldi endpoint per node, each with its own
// per-link filter bank and application-update policy, and replays a
// trace.Source through them. For every observation the runner measures —
// before applying the update, as the paper does — the system-level and
// application-level relative error against the raw observed latency, then
// applies the filter, the Vivaldi update, and the policy, recording
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
// nodes at the same time, using different ports"). A run is one
// goroutine; callers that want more cores run whole simulations side by
// side (experiments.sweep).
//
// # Allocation discipline
//
// A steady-state Step performs zero heap allocations: all coordinate
// arithmetic goes through the in-place vec/coord/vivaldi variants, the
// policies and window pairs maintain preallocated buffers, and metric
// storage can be pre-sized with the Expected* hints. This is what turns
// the reproduction loop from GC-bound into CPU-bound.
package sim

import (
	"errors"
	"fmt"
	"math"

	"netcoord/internal/coord"
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
	// Parallelism is ignored: every run is sequential.
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
	last    uint64

	// cur is the tick whose snapshot is currently published; dirty lists
	// the nodes that must republish at the next tick boundary.
	cur     uint64
	dirty   []int
	isDirty []bool
}

// nodeState is one simulated host.
type nodeState struct {
	viv    *vivaldi.Node
	bank   *filter.Bank[int]
	policy heuristic.Policy

	// Nearest-neighbor tracking for the RELATIVE policy: the paper's
	// nodes learn an approximate nearest neighbor from the latency
	// samples themselves.
	nnID    int
	nnDist  float64
	nnCoord coord.Coordinate
	hasNN   bool

	// Published tick-start snapshot: what remote peers observe until the
	// next tick boundary. Only the runner's publish step writes these.
	pubSys coord.Coordinate
	pubErr float64
	pubApp coord.Coordinate

	// Scratch buffers for displacement measurement, reused every step.
	prevSys coord.Coordinate
	prevApp coord.Coordinate
}

// NewRunner builds a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("sim: %d nodes, want >= 2", cfg.Nodes)
	}
	if err := cfg.Vivaldi.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
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
	dim := cfg.Vivaldi.Dimension
	for i := 0; i < cfg.Nodes; i++ {
		vcfg := cfg.Vivaldi
		vcfg.Seed = xrand.Hash64(cfg.Vivaldi.Seed, uint64(i))
		viv, err := vivaldi.New(vcfg)
		if err != nil {
			return nil, fmt.Errorf("sim node %d: %w", i, err)
		}
		factory := cfg.Filter
		if factory == nil {
			factory = func() filter.Filter { return filter.NewNone() }
		}
		var policy heuristic.Policy
		if cfg.Policy != nil {
			policy, err = cfg.Policy(vcfg.Dimension)
		} else {
			policy, err = heuristic.NewDirect(vcfg.Dimension)
		}
		if err != nil {
			return nil, fmt.Errorf("sim node %d policy: %w", i, err)
		}
		// Validate the policy's dimension once here, so the per-sample
		// path can rely on compatible dimensions without re-deriving
		// (and allocating) mismatch diagnostics.
		if got := policy.AppRef().Dim(); got != dim {
			return nil, fmt.Errorf("sim node %d policy: dimension %d, want %d", i, got, dim)
		}
		n := &nodeState{
			viv:     viv,
			bank:    filter.NewBank[int](factory, 0),
			policy:  policy,
			nnDist:  math.Inf(1),
			nnCoord: coord.Origin(dim),
			prevSys: coord.Origin(dim),
			prevApp: coord.Origin(dim),
		}
		// Initial snapshot: every node publishes its starting state
		// before the first tick.
		n.pubSys = viv.Coordinate()
		n.pubErr = viv.Error()
		n.pubApp = policy.App()
		r.nodes[i] = n
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

// advanceTo publishes the tick-boundary snapshot when the trace moves to
// a later tick. Earlier or equal ticks leave the snapshot untouched.
func (r *Runner) advanceTo(tick uint64) {
	if tick > r.cur {
		r.publish()
		r.cur = tick
	}
}

// publish refreshes the published snapshot of every node updated since
// the last boundary.
func (r *Runner) publish() {
	for _, i := range r.dirty {
		n := r.nodes[i]
		n.pubSys.CopyFrom(n.viv.CoordinateRef())
		n.pubErr = n.viv.Error()
		n.pubApp.CopyFrom(n.policy.AppRef())
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

// count folds a sample into the stream counters.
func (r *Runner) count(s trace.Sample) {
	if s.Tick > r.last {
		r.last = s.Tick
	}
	r.samples++
	if s.Lost {
		r.lost++
	}
}

// Step processes one trace sample under tick-barrier semantics: measure
// both relative errors against the raw observation, then filter, update
// and apply the policy, recording each metric group as soon as it is
// known. It mutates only the sample's From node, reads remote state
// exclusively from the tick-start snapshot, and performs zero heap
// allocations on the success path.
//
//nc:hotpath
func (r *Runner) Step(s trace.Sample) error {
	if err := r.check(s); err != nil {
		return err
	}
	r.advanceTo(s.Tick)
	r.count(s)
	if s.Lost {
		return nil
	}
	src := r.nodes[s.From]
	dst := r.nodes[s.To]

	// Measure prediction error of the current coordinates against the
	// raw observation, before updating (paper Section II-A). The
	// Euclidean separation is reused by the Vivaldi update below instead
	// of being recomputed.
	est, sep, err := src.viv.EstimateWithSeparation(dst.pubSys)
	if err != nil {
		//nc:allow(hotpath) estimate-failure return: cold by definition
		return fmt.Errorf("sim: estimate: %w", err)
	}
	appEst, err := src.policy.AppRef().DistanceTo(dst.pubApp)
	if err != nil {
		//nc:allow(hotpath) estimate-failure return: cold by definition
		return fmt.Errorf("sim: app estimate: %w", err)
	}
	if err := r.sys.RecordError(s.From, s.Tick, math.Abs(est-s.RTT)/s.RTT); err != nil {
		return err
	}
	if err := r.app.RecordError(s.From, s.Tick, math.Abs(appEst-s.RTT)/s.RTT); err != nil {
		return err
	}

	// Filter the raw observation; a warming-up filter withholds the
	// Vivaldi update entirely.
	filtered, ok := src.bank.Observe(s.To, s.RTT)
	if !ok {
		return nil
	}

	// Nearest-neighbor bookkeeping from the filtered estimate.
	if filtered < src.nnDist || s.To == src.nnID {
		src.nnID = s.To
		src.nnDist = filtered
		src.nnCoord.CopyFrom(dst.pubSys)
		src.hasNN = true
	}

	src.prevSys.CopyFrom(src.viv.CoordinateRef())
	if err := src.viv.UpdateWithSeparation(filtered, dst.pubSys, dst.pubErr, sep); err != nil {
		//nc:allow(hotpath) update-failure return: cold by definition
		return fmt.Errorf("sim: vivaldi update: %w", err)
	}
	moved, err := src.viv.CoordinateRef().DisplacementFrom(src.prevSys)
	if err != nil {
		return err
	}
	if err := r.sys.RecordMovement(s.From, s.Tick, moved, moved > 0); err != nil {
		return err
	}
	r.markDirty(s.From)

	src.prevApp.CopyFrom(src.policy.AppRef())
	newApp, changed, err := src.policy.Observe(heuristic.Observation{
		Sys:         src.viv.CoordinateRef(),
		Neighbor:    src.nnCoord,
		HasNeighbor: src.hasNN,
	})
	if err != nil {
		//nc:allow(hotpath) policy-failure return: cold by definition
		return fmt.Errorf("sim: policy: %w", err)
	}
	appMoved, err := newApp.DisplacementFrom(src.prevApp)
	if err != nil {
		return err
	}
	return r.app.RecordMovement(s.From, s.Tick, appMoved, changed)
}

// Run drains a trace source through the runner, one Step per sample.
// After an error the runner's state is undefined and the run must be
// discarded.
func (r *Runner) Run(src trace.Source) error {
	for {
		s, ok := src.Next()
		if !ok {
			return nil
		}
		if err := r.Step(s); err != nil {
			return err
		}
	}
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
func (r *Runner) LastTick() uint64 { return r.last }

// Coordinate returns node i's current system-level coordinate.
func (r *Runner) Coordinate(i int) (coord.Coordinate, error) {
	if i < 0 || i >= len(r.nodes) {
		return coord.Coordinate{}, fmt.Errorf("sim: node %d out of range", i)
	}
	return r.nodes[i].viv.Coordinate(), nil
}

// AppCoordinate returns node i's current application-level coordinate.
func (r *Runner) AppCoordinate(i int) (coord.Coordinate, error) {
	if i < 0 || i >= len(r.nodes) {
		return coord.Coordinate{}, fmt.Errorf("sim: node %d out of range", i)
	}
	return r.nodes[i].policy.App(), nil
}

// Confidence returns node i's confidence (1 - error weight), the
// quantity plotted in the paper's Figure 6.
func (r *Runner) Confidence(i int) (float64, error) {
	if i < 0 || i >= len(r.nodes) {
		return 0, fmt.Errorf("sim: node %d out of range", i)
	}
	return r.nodes[i].viv.Confidence(), nil
}
