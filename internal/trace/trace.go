// Package trace defines the latency observation stream that feeds the
// simulator: the synthetic counterpart of the paper's PlanetLab ping
// trace ("each node measured the latency to another node with an
// application-level UDP ping once per second").
//
// A trace is a time-ordered stream of Samples. Sources produce them
// either live from a netsim.Network (Generator) or by replaying recorded
// data (SliceSource, Reader). Generators sample neighbors in round-robin
// order, matching both the paper's trace collection and its PlanetLab
// implementation.
package trace

import (
	"errors"
	"fmt"

	"netcoord/internal/netsim"
	"netcoord/internal/xrand"
)

// Sample is one latency observation: node From pinged node To at second
// Tick and measured RTT milliseconds. Lost marks pings with no response
// (RTT is meaningless then).
type Sample struct {
	Tick uint64
	From int
	To   int
	RTT  float64
	Lost bool
}

// Source yields samples in non-decreasing Tick order.
type Source interface {
	// Next returns the next sample; ok is false when the trace is
	// exhausted.
	Next() (s Sample, ok bool)
}

// SliceSource replays an in-memory sample slice.
type SliceSource struct {
	samples []Sample
	pos     int
}

// NewSliceSource wraps samples (not copied; callers must not mutate).
func NewSliceSource(samples []Sample) *SliceSource {
	return &SliceSource{samples: samples}
}

// Next implements Source.
func (s *SliceSource) Next() (Sample, bool) {
	if s.pos >= len(s.samples) {
		return Sample{}, false
	}
	out := s.samples[s.pos]
	s.pos++
	return out, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// GeneratorConfig parameterizes trace generation.
type GeneratorConfig struct {
	// IntervalTicks is the per-node sampling period in seconds: the
	// paper's trace used 1 (a ping per second), its PlanetLab
	// implementation 5.
	IntervalTicks uint64
	// DurationTicks is the trace length in seconds (e.g. 4*3600 for the
	// paper's four-hour runs).
	DurationTicks uint64
	// NeighborCount bounds each node's neighbor set; 0 means every other
	// node. Neighbors are a deterministic random subset per node, and
	// each node cycles through its set round-robin.
	NeighborCount int
	// JoinSpreadTicks models churn: when > 0, every node except node 0
	// joins at a deterministic random tick in [0, JoinSpreadTicks).
	// Nodes neither sample nor get sampled before they join — the
	// regime the paper's Section VI warns about, where first samples on
	// brand-new links keep arriving throughout the run.
	JoinSpreadTicks uint64
	// Seed drives neighbor-set selection and join times (distinct from
	// the network's observation seed).
	Seed uint64
}

// Validate checks the configuration.
func (c GeneratorConfig) Validate() error {
	if c.IntervalTicks < 1 {
		return fmt.Errorf("trace: interval %d ticks, want >= 1", c.IntervalTicks)
	}
	if c.DurationTicks < 1 {
		return fmt.Errorf("trace: duration %d ticks, want >= 1", c.DurationTicks)
	}
	if c.NeighborCount < 0 {
		return fmt.Errorf("trace: neighbor count %d, want >= 0", c.NeighborCount)
	}
	return nil
}

// Generator produces a trace live from a synthetic network. Nodes sample
// on a fixed period, staggered by node index so the load is spread across
// ticks; each node walks its neighbor set round-robin.
type Generator struct {
	net       *netsim.Network
	cfg       GeneratorConfig
	neighbors [][]int
	cursor    []int
	joinTick  []uint64
	tick      uint64
	node      int
}

// NewGenerator builds a generator over the given network.
func NewGenerator(net *netsim.Network, cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.Nodes()
	if n < 2 {
		return nil, errors.New("trace: need at least two nodes")
	}
	g := &Generator{
		net:       net,
		cfg:       cfg,
		neighbors: make([][]int, n),
		cursor:    make([]int, n),
		joinTick:  make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		g.neighbors[i] = buildNeighborSet(i, n, cfg.NeighborCount, cfg.Seed)
		if cfg.JoinSpreadTicks > 0 && i > 0 {
			g.joinTick[i] = xrand.At(cfg.Seed, 0xC0FFEE, uint64(i)).Uint64() % cfg.JoinSpreadTicks
		}
	}
	return g, nil
}

// Network returns the network the generator samples.
func (g *Generator) Network() *netsim.Network { return g.net }

// JoinTick reports when node i joins the system (0 without churn).
func (g *Generator) JoinTick(i int) uint64 { return g.joinTick[i] }

// buildNeighborSet returns node i's neighbor list: all other nodes in
// ring order when count is 0 or exceeds the population, otherwise a
// deterministic random subset of the requested size.
func buildNeighborSet(i, n, count int, seed uint64) []int {
	others := make([]int, 0, n-1)
	for d := 1; d < n; d++ {
		others = append(others, (i+d)%n)
	}
	if count <= 0 || count >= len(others) {
		return others
	}
	rng := xrand.At(seed, uint64(i))
	perm := rng.Perm(len(others))
	set := make([]int, count)
	for k := 0; k < count; k++ {
		set[k] = others[perm[k]]
	}
	return set
}

// Neighbors exposes node i's neighbor list (for tests and the simulator's
// nearest-neighbor bootstrap). The returned slice must not be modified.
func (g *Generator) Neighbors(i int) []int { return g.neighbors[i] }

// Next implements Source. It scans ticks in order; within a tick, nodes
// due to sample (tick % interval == node % interval) fire in node order.
// Nodes that have not joined yet neither sample nor get sampled.
func (g *Generator) Next() (Sample, bool) {
	for g.tick < g.cfg.DurationTicks {
		for g.node < g.net.Nodes() {
			i := g.node
			g.node++
			if g.tick%g.cfg.IntervalTicks != uint64(i)%g.cfg.IntervalTicks {
				continue
			}
			if g.tick < g.joinTick[i] {
				continue
			}
			set := g.neighbors[i]
			target, ok := g.nextJoinedTarget(i, set)
			if !ok {
				continue // nobody else has joined yet
			}
			rtt, ok := g.net.Sample(i, target, g.tick)
			return Sample{Tick: g.tick, From: i, To: target, RTT: rtt, Lost: !ok}, true
		}
		g.node = 0
		g.tick++
	}
	return Sample{}, false
}

// nextJoinedTarget advances node i's round-robin cursor to the next
// neighbor that has already joined, trying each neighbor at most once.
func (g *Generator) nextJoinedTarget(i int, set []int) (int, bool) {
	for tries := 0; tries < len(set); tries++ {
		target := set[g.cursor[i]%len(set)]
		g.cursor[i]++
		if g.tick >= g.joinTick[target] {
			return target, true
		}
	}
	return 0, false
}

// Collect drains up to limit samples from a source (limit <= 0 drains
// everything). Intended for tests and small analyses; full experiment
// runs stream instead.
func Collect(src Source, limit int) []Sample {
	var out []Sample
	for {
		if limit > 0 && len(out) >= limit {
			return out
		}
		s, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, s)
	}
}
