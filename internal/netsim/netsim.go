// Package netsim models the wide-area network underneath the coordinate
// system. It substitutes for the paper's 3-day, 43-million-sample
// PlanetLab ping trace (Section III): instead of replaying recorded
// pings, it generates per-link observation streams with the same
// structure the paper documents —
//
//   - a stable per-link base RTT determined by geography (regional
//     clusters in a 2-D millisecond plane) plus per-node access links and
//     a per-link triangle-inequality-violating extra delay;
//   - small multiplicative and additive jitter around the base;
//   - a moderate congestion tail (a few percent of samples several times
//     the base);
//   - rare extreme spikes, orders of magnitude above the base, spread
//     uniformly over time (Figure 3) and calibrated so ~0.4% of all
//     samples exceed one second (Figure 2);
//   - occasional losses.
//
// Every sample is a pure function of (seed, link, tick) via hash-based
// streams, so traces are reproducible and generation-order independent,
// and any single observation can be re-derived in O(1).
//
// The model also supports what the paper's evaluation needs beyond the
// stationary case: slow regional drift (Figure 7's coordinates moving
// over hours), step route changes (BGP events the filter must adapt to),
// a static mode reproducing the original Vivaldi evaluation methodology
// (every sample equals the base — the A1 ablation), and a low-latency
// cluster profile for the confidence-building experiment (Figure 6).
package netsim

import (
	"errors"
	"fmt"
	"math"

	"netcoord/internal/xrand"
)

// Stream tags keep the per-purpose hash streams independent.
const (
	tagPlacement = iota + 1
	tagAccess
	tagTIV
	tagSample
)

// Region is a geographic cluster of nodes.
type Region struct {
	// Name labels the region in experiment output ("us-west", ...).
	Name string
	// X, Y place the region center in the 2-D millisecond plane: the
	// Euclidean distance between two points approximates the long-haul
	// RTT between them.
	X, Y float64
	// Spread is the standard deviation of node placement around the
	// center, in milliseconds.
	Spread float64
}

// RouteChange is a step change in long-haul latency between two regions,
// effective from AtTick onward: the inter-node base RTT between the
// regions is multiplied by Factor.
type RouteChange struct {
	AtTick  uint64
	RegionA int
	RegionB int
	Factor  float64
}

// Config parameterizes a synthetic network.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Nodes is the number of hosts; they are assigned to Regions
	// round-robin.
	Nodes int
	// Regions define the cluster geography. Defaults (via
	// DefaultWideArea) mirror the paper's Figure 7 regions: US West,
	// US East, Europe, China.
	Regions []Region

	// AccessMin/AccessMax bound each node's access-link delay (ms),
	// drawn uniformly per node. Contributes to every RTT the node sees.
	AccessMin float64
	AccessMax float64
	// TIVMean is the mean of the per-link exponential extra delay that
	// injects triangle-inequality violations; 0 disables.
	TIVMean float64

	// JitterStdDev is the relative sigma of the multiplicative common
	// case jitter: sample *= 1 + |N(0, JitterStdDev)|.
	JitterStdDev float64
	// JitterExpMean is the mean of the additive exponential jitter (ms).
	JitterExpMean float64
	// CongestionProb is the probability a sample is inflated by
	// Uniform(CongestionLo, CongestionHi) — the moderate tail.
	CongestionProb float64
	CongestionLo   float64
	CongestionHi   float64
	// SpikeProb is the probability of an extreme spike, replacing the
	// sample with Uniform(SpikeLo, SpikeHi) ms if that is larger.
	SpikeProb float64
	SpikeLo   float64
	SpikeHi   float64
	// LossProb is the probability a ping gets no response.
	LossProb float64
	// MinLatency floors every observation (ms).
	MinLatency float64

	// Static disables all observation noise: every sample equals the
	// base RTT. This reproduces the original Vivaldi evaluation's
	// fixed-latency-matrix methodology (ablation A1).
	Static bool

	// DriftPerHour gives each region a constant velocity (ms/hour) in
	// the plane; index parallel to Regions. Nil disables drift.
	DriftPerHour []Drift
	// RouteChanges are step latency changes applied at given ticks.
	RouteChanges []RouteChange
}

// Drift is a regional velocity in the millisecond plane.
type Drift struct {
	DX, DY float64
}

// DefaultWideArea returns a PlanetLab-like configuration: four regions
// with intercontinental spacing, heavy-tailed observation noise
// calibrated to Figure 2 (~0.4% of samples >= 1 s), and mild
// triangle-inequality violations.
func DefaultWideArea(nodes int, seed uint64) Config {
	return Config{
		Seed:  seed,
		Nodes: nodes,
		Regions: []Region{
			{Name: "us-west", X: 0, Y: 0, Spread: 8},
			{Name: "us-east", X: 70, Y: 12, Spread: 8},
			{Name: "europe", X: 155, Y: 30, Spread: 10},
			{Name: "china", X: 200, Y: -45, Spread: 10},
		},
		AccessMin:      0.5,
		AccessMax:      12,
		TIVMean:        6,
		JitterStdDev:   0.03,
		JitterExpMean:  0.6,
		CongestionProb: 0.02,
		CongestionLo:   1.5,
		CongestionHi:   5,
		SpikeProb:      0.004,
		SpikeLo:        1000,
		SpikeHi:        10000,
		LossProb:       0.002,
		MinLatency:     0.1,
	}
}

// LowLatencyCluster returns the paper's Section IV-B local-cluster
// profile: sub-millisecond base latencies with jitter at the limit of
// measurement precision — "a fairly Normal spectrum of latency
// observations between 0.4 and 1.2 ms, and then a tail of 5% of the
// observations above 1.2 ms".
func LowLatencyCluster(nodes int, seed uint64) Config {
	return Config{
		Seed:  seed,
		Nodes: nodes,
		Regions: []Region{
			{Name: "cluster", X: 0, Y: 0, Spread: 0.02},
		},
		AccessMin:      0.15,
		AccessMax:      0.35,
		TIVMean:        0,
		JitterStdDev:   0.25,
		JitterExpMean:  0.12,
		CongestionProb: 0.05,
		CongestionLo:   2,
		CongestionHi:   6,
		SpikeProb:      0,
		SpikeLo:        0,
		SpikeHi:        0,
		LossProb:       0,
		MinLatency:     0.05,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("netsim: %d nodes, want >= 2", c.Nodes)
	}
	if len(c.Regions) == 0 {
		return errors.New("netsim: no regions")
	}
	for i, r := range c.Regions {
		if r.Spread < 0 {
			return fmt.Errorf("netsim: region %d spread %v, want >= 0", i, r.Spread)
		}
	}
	if c.AccessMin < 0 || c.AccessMax < c.AccessMin {
		return fmt.Errorf("netsim: access range [%v, %v] invalid", c.AccessMin, c.AccessMax)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"congestion probability", c.CongestionProb},
		{"spike probability", c.SpikeProb},
		{"loss probability", c.LossProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netsim: %s %v out of [0, 1]", p.name, p.v)
		}
	}
	if c.MinLatency <= 0 {
		return fmt.Errorf("netsim: min latency %v, want > 0", c.MinLatency)
	}
	if c.DriftPerHour != nil && len(c.DriftPerHour) != len(c.Regions) {
		return fmt.Errorf("netsim: %d drift entries for %d regions", len(c.DriftPerHour), len(c.Regions))
	}
	for i, rc := range c.RouteChanges {
		if rc.RegionA < 0 || rc.RegionA >= len(c.Regions) || rc.RegionB < 0 || rc.RegionB >= len(c.Regions) {
			return fmt.Errorf("netsim: route change %d references unknown region", i)
		}
		if rc.Factor <= 0 {
			return fmt.Errorf("netsim: route change %d factor %v, want > 0", i, rc.Factor)
		}
	}
	return nil
}

// Network is an instantiated synthetic network.
type Network struct {
	cfg      Config
	posX     []float64
	posY     []float64
	access   []float64
	regionOf []int
}

// New places nodes and derives per-node parameters from the seed.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		cfg:      cfg,
		posX:     make([]float64, cfg.Nodes),
		posY:     make([]float64, cfg.Nodes),
		access:   make([]float64, cfg.Nodes),
		regionOf: make([]int, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		r := i % len(cfg.Regions)
		n.regionOf[i] = r
		place := xrand.At(cfg.Seed, tagPlacement, uint64(i))
		n.posX[i] = cfg.Regions[r].X + place.Normal(0, cfg.Regions[r].Spread)
		n.posY[i] = cfg.Regions[r].Y + place.Normal(0, cfg.Regions[r].Spread)
		acc := xrand.At(cfg.Seed, tagAccess, uint64(i))
		n.access[i] = acc.Uniform(cfg.AccessMin, cfg.AccessMax)
	}
	return n, nil
}

// Nodes returns the host count.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Region returns the region name of node i.
func (n *Network) Region(i int) string {
	return n.cfg.Regions[n.regionOf[i]].Name
}

// positionAt returns node i's plane position at the given tick,
// accounting for regional drift.
func (n *Network) positionAt(i int, tick uint64) (float64, float64) {
	x, y := n.posX[i], n.posY[i]
	if n.cfg.DriftPerHour != nil {
		d := n.cfg.DriftPerHour[n.regionOf[i]]
		hours := float64(tick) / 3600
		x += d.DX * hours
		y += d.DY * hours
	}
	return x, y
}

// BaseRTT returns the ground-truth base round-trip time between nodes i
// and j at the given tick (seconds since start), in milliseconds. This is
// the quantity observations are distributed around; experiments may use
// it for diagnostics, but accuracy metrics follow the paper in measuring
// against observations.
func (n *Network) BaseRTT(i, j int, tick uint64) float64 {
	if i == j {
		return 0
	}
	xi, yi := n.positionAt(i, tick)
	xj, yj := n.positionAt(j, tick)
	dx, dy := xi-xj, yi-yj
	// Group the access sum so the result is bit-identical regardless of
	// argument order (float addition is commutative but not associative).
	base := math.Sqrt(dx*dx+dy*dy) + (n.access[i] + n.access[j])
	base += n.tivExtra(i, j)
	base *= n.routeFactor(i, j, tick)
	return math.Max(base, n.cfg.MinLatency)
}

// tivExtra is the symmetric per-link triangle-violating extra delay.
func (n *Network) tivExtra(i, j int) float64 {
	if n.cfg.TIVMean <= 0 {
		return 0
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	s := xrand.At(n.cfg.Seed, tagTIV, uint64(lo), uint64(hi))
	return s.Exponential(n.cfg.TIVMean)
}

// routeFactor multiplies in any route changes active at tick for the
// region pair of (i, j).
func (n *Network) routeFactor(i, j int, tick uint64) float64 {
	f := 1.0
	ri, rj := n.regionOf[i], n.regionOf[j]
	for _, rc := range n.cfg.RouteChanges {
		if tick < rc.AtTick {
			continue
		}
		if (rc.RegionA == ri && rc.RegionB == rj) || (rc.RegionA == rj && rc.RegionB == ri) {
			f *= rc.Factor
		}
	}
	return f
}

// Sample returns the observed RTT of a ping from i to j at the given
// tick (milliseconds). ok is false when the ping is lost. Samples are a
// pure function of (seed, i, j, tick).
func (n *Network) Sample(i, j int, tick uint64) (rtt float64, ok bool) {
	base := n.BaseRTT(i, j, tick)
	if n.cfg.Static {
		return base, true
	}
	s := xrand.At(n.cfg.Seed, tagSample, uint64(i), uint64(j), tick)
	if n.cfg.LossProb > 0 && s.Bernoulli(n.cfg.LossProb) {
		return 0, false
	}
	v := base*(1+math.Abs(s.Normal(0, n.cfg.JitterStdDev))) + s.Exponential(n.cfg.JitterExpMean)
	if n.cfg.CongestionProb > 0 && s.Bernoulli(n.cfg.CongestionProb) {
		v *= s.Uniform(n.cfg.CongestionLo, n.cfg.CongestionHi)
	}
	if n.cfg.SpikeProb > 0 && s.Bernoulli(n.cfg.SpikeProb) {
		v = math.Max(v, s.Uniform(n.cfg.SpikeLo, n.cfg.SpikeHi))
	}
	return math.Max(v, n.cfg.MinLatency), true
}
