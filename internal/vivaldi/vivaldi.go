// Package vivaldi implements the Vivaldi network coordinate update
// algorithm (Cox/Dabek et al.) exactly as used by the paper's Figure 1,
// together with the paper's confidence-building margin (Section IV-B) and
// the de Launois asymptotic damping variant discussed in related work
// (Section VII-B, implemented here for the ablation benchmarks).
//
// Each node retains a coordinate x_i and an error weight w_i in (0, 1].
// w_i is an exponentially weighted moving average of the node's relative
// prediction error: *low* w means *high* confidence. The "confidence"
// plotted in the paper's Figure 6 is 1 - w. The paper's worked example
// pins the semantics: with both nodes at w = 0.5, an expected distance of
// 1 ms and a measured 3 ms, a single sample "will reduce confidence by
// almost 5%" — which holds only if w is the error average (see the unit
// tests, which verify this exact scenario).
//
// Per observation (l_ij, x_j, w_j) the update is:
//
//	w_s   = w_i / (w_i + w_j)              observation weight
//	eps   = | ||x_i - x_j|| - l_ij | / l_ij  relative error of sample
//	alpha = c_e * w_s
//	w_i   = alpha*eps + (1-alpha)*w_i       confidence update (clamped)
//	delta = c_c * w_s
//	x_i  += delta * (l_ij - ||x_i - x_j||) * u(x_i - x_j)
//
// The force term follows the mass-spring semantics of the original
// Vivaldi paper: when the measured latency exceeds the coordinate
// estimate the spring is compressed and pushes the nodes apart (u points
// from x_j toward x_i), and vice versa.
package vivaldi

import (
	"errors"
	"fmt"
	"math"

	"netcoord/internal/coord"
	"netcoord/internal/vec"
	"netcoord/internal/xrand"
)

// Paper constants: "We used cc, ce = 0.25, which are the same values used
// in the original authors' Vivaldi simulator."
const (
	DefaultCC = 0.25
	DefaultCE = 0.25
	// DefaultInitialError is the starting error weight: maximally
	// unconfident.
	DefaultInitialError = 1.0
	// minErrorFloor keeps w_i strictly positive so the relative weight
	// w_i/(w_i+w_j) stays defined and a perfectly confident node can
	// still adapt if the network changes underneath it.
	minErrorFloor = 1e-6
)

// ErrBadSample rejects non-positive or non-finite latency samples.
var ErrBadSample = errors.New("vivaldi: invalid latency sample")

// ErrBadRemote rejects remote coordinates that fail the hot-path checks
// (dimension mismatch, non-finite component, invalid height). It is a
// bare sentinel so the per-sample path never constructs a fmt.Errorf:
// callers that need the decorated diagnosis use Update, which validates
// with coord.Coordinate.Validate instead.
var ErrBadRemote = errors.New("vivaldi: invalid remote coordinate")

// Config parameterizes a Vivaldi node.
type Config struct {
	// Dimension of the coordinate space. The paper uses 3.
	Dimension int
	// CC bounds the coordinate step per observation (c_c).
	CC float64
	// CE bounds the confidence step per observation (c_e).
	CE float64
	// InitialError is the starting error weight in (0, 1].
	InitialError float64
	// ErrorMargin enables confidence building when > 0: if the measured
	// and estimated latency differ by no more than this margin
	// (milliseconds), they are considered equal — the sample contributes
	// zero relative error and no coordinate force. The paper uses 3 ms
	// on its local cluster and notes the mechanism matters only in
	// low-latency environments.
	ErrorMargin float64
	// UseHeight enables the non-Euclidean height component (Dabek et
	// al.). The paper's experiments run with this off.
	UseHeight bool
	// HeightMin is the floor for the height component when UseHeight is
	// set; heights below it are clamped up.
	HeightMin float64
	// DampingConstant enables the de Launois et al. stabilization when
	// > 0: the coordinate step is additionally scaled by
	// D / (D + updates), which decays toward zero regardless of the
	// observation source. Implemented for the A3 ablation: it stabilizes
	// coordinates but stops adaptation to genuine network change.
	DampingConstant float64
	// Seed drives the random direction used to separate co-located
	// coordinates at bootstrap.
	Seed uint64
}

// DefaultConfig returns the paper's parameters: 3 dimensions,
// cc = ce = 0.25, no height, no confidence building, no damping.
func DefaultConfig() Config {
	return Config{
		Dimension:    coord.DefaultDimension,
		CC:           DefaultCC,
		CE:           DefaultCE,
		InitialError: DefaultInitialError,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Dimension < 1 || c.Dimension > coord.MaxDimension {
		return fmt.Errorf("vivaldi: dimension %d out of [1, %d]", c.Dimension, coord.MaxDimension)
	}
	if c.CC <= 0 || c.CC > 1 {
		return fmt.Errorf("vivaldi: cc %v out of (0, 1]", c.CC)
	}
	if c.CE <= 0 || c.CE > 1 {
		return fmt.Errorf("vivaldi: ce %v out of (0, 1]", c.CE)
	}
	if c.InitialError <= 0 || c.InitialError > 1 {
		return fmt.Errorf("vivaldi: initial error %v out of (0, 1]", c.InitialError)
	}
	if c.ErrorMargin < 0 {
		return fmt.Errorf("vivaldi: error margin %v, want >= 0", c.ErrorMargin)
	}
	if c.HeightMin < 0 {
		return fmt.Errorf("vivaldi: height min %v, want >= 0", c.HeightMin)
	}
	if c.DampingConstant < 0 {
		return fmt.Errorf("vivaldi: damping constant %v, want >= 0", c.DampingConstant)
	}
	return nil
}

// Node is a single participant's Vivaldi state. It is not safe for
// concurrent use; the public netcoord.Client adds synchronization.
type Node struct {
	cfg     Config
	coord   coord.Coordinate
	err     float64
	updates uint64
	rng     *xrand.Stream
	// dir is the scratch buffer for the co-located bootstrap direction,
	// allocated once so the update path never allocates.
	dir vec.Vector
}

// New builds a node at the origin with the configured initial error.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := coord.Origin(cfg.Dimension)
	if cfg.UseHeight {
		c.Height = cfg.HeightMin
	}
	return &Node{
		cfg:   cfg,
		coord: c,
		err:   cfg.InitialError,
		rng:   xrand.NewStream(cfg.Seed),
		dir:   vec.Zero(cfg.Dimension),
	}, nil
}

// Coordinate returns a copy of the node's current coordinate.
func (n *Node) Coordinate() coord.Coordinate { return n.coord.Clone() }

// CoordinateRef returns the node's live coordinate without copying. The
// returned value aliases internal state: it changes on the next update
// and must not be mutated by the caller. It exists for the simulator's
// per-sample path; everything else should use Coordinate.
func (n *Node) CoordinateRef() coord.Coordinate { return n.coord }

// Error returns the node's error weight w_i (low = confident).
func (n *Node) Error() float64 { return n.err }

// Confidence returns 1 - w_i, the quantity plotted in the paper's
// Figure 6.
func (n *Node) Confidence() float64 { return 1 - n.err }

// Updates reports how many observations have been applied.
func (n *Node) Updates() uint64 { return n.updates }

// SetCoordinate replaces the node's coordinate, validating it first.
// Used when restoring persisted state.
func (n *Node) SetCoordinate(c coord.Coordinate) error {
	if err := c.Validate(n.cfg.Dimension); err != nil {
		return fmt.Errorf("set coordinate: %w", err)
	}
	n.coord.CopyFrom(c)
	return nil
}

// SetError replaces the node's error weight, clamped into (0, 1].
func (n *Node) SetError(w float64) {
	n.err = clampError(w)
}

// EstimateRTT predicts the round-trip time to a remote coordinate, in
// milliseconds.
func (n *Node) EstimateRTT(remote coord.Coordinate) (float64, error) {
	d, err := n.coord.DistanceTo(remote)
	if err != nil {
		return 0, fmt.Errorf("estimate rtt: %w", err)
	}
	return d, nil
}

// EstimateWithSeparation predicts the round-trip time to a remote
// coordinate and also returns the raw Euclidean separation
// ||x_i - x_j|| it is built from, so callers on the per-sample path can
// hand the separation straight back to UpdateWithSeparation instead of
// recomputing the same distance.
func (n *Node) EstimateWithSeparation(remote coord.Coordinate) (est, sep float64, err error) {
	sep, err = n.coord.Vec.Dist(remote.Vec)
	if err != nil {
		//nc:allow(hotpath) dimension-mismatch return: cold by definition
		return 0, 0, fmt.Errorf("estimate rtt: %w", err)
	}
	return sep + n.coord.Height + remote.Height, sep, nil
}

// Update applies one latency observation of the remote node: the measured
// RTT in milliseconds, the remote's coordinate, and the remote's error
// weight w_j. It returns a copy of the node's new coordinate.
//
// Update is the network-facing entry point: it fully validates the remote
// coordinate (wrapped diagnostics included) and clones its result. The
// simulator's per-sample path uses UpdateWithSeparation +
// CoordinateRef instead, which perform the same update with zero heap
// allocations.
func (n *Node) Update(rtt float64, remote coord.Coordinate, remoteErr float64) (coord.Coordinate, error) {
	if rtt <= 0 || math.IsNaN(rtt) || math.IsInf(rtt, 0) {
		// Decorated here rather than in the shared core: this is the
		// network-facing path where the offending value identifies the
		// misbehaving peer, and it can afford the wrapper allocation.
		return n.coord.Clone(), fmt.Errorf("%w: rtt %v", ErrBadSample, rtt)
	}
	if err := remote.Validate(n.cfg.Dimension); err != nil {
		return n.coord.Clone(), fmt.Errorf("remote coordinate: %w", err)
	}
	sep, err := n.coord.Vec.Dist(remote.Vec)
	if err != nil {
		return n.coord.Clone(), fmt.Errorf("vivaldi update: %w", err)
	}
	if err := n.update(rtt, remote, remoteErr, sep); err != nil {
		return n.coord.Clone(), err
	}
	return n.coord.Clone(), nil
}

// UpdateWithSeparation applies one observation reusing a separation the
// caller already computed — sep must be ||x_i - x_j|| for the current
// coordinates, i.e. the second return of EstimateWithSeparation with no
// intervening update. It validates the remote with allocation-free
// sentinel errors and performs zero heap allocations.
//
//nc:hotpath
func (n *Node) UpdateWithSeparation(rtt float64, remote coord.Coordinate, remoteErr float64, sep float64) error {
	// The checks mirror coord.Coordinate.Validate but return the bare
	// sentinel: dimension compatibility is established once at node
	// construction by the simulator, so the wrapped message would never
	// surface, and building it costs an allocation per sample.
	if len(remote.Vec) != n.cfg.Dimension || !remote.Vec.IsFinite() {
		return ErrBadRemote
	}
	if math.IsNaN(remote.Height) || math.IsInf(remote.Height, 0) || remote.Height < 0 {
		return ErrBadRemote
	}
	return n.update(rtt, remote, remoteErr, sep)
}

// update is the Figure 1 algorithm, shared by every entry point. It
// mutates n.coord in place and allocates nothing.
func (n *Node) update(rtt float64, remote coord.Coordinate, remoteErr float64, sep float64) error {
	if rtt <= 0 || math.IsNaN(rtt) || math.IsInf(rtt, 0) {
		return ErrBadSample
	}
	wi := n.err
	wj := clampError(remoteErr)

	// Line 1: relative weight of this observation.
	ws := wi / (wi + wj)

	// Effective distance: the co-located regime collapses the separation
	// to zero.
	mag := sep
	colocated := vec.Colocated(mag)
	if colocated {
		mag = 0
	}
	dist := mag + n.coord.Height + remote.Height

	// Confidence building (Section IV-B): within the measurement error
	// margin, the estimate and the observation are considered equal.
	gap := dist - rtt
	if n.cfg.ErrorMargin > 0 && math.Abs(gap) <= n.cfg.ErrorMargin {
		gap = 0
	}

	// Line 2: relative error of this sample.
	eps := math.Abs(gap) / rtt

	// Lines 3-4: confidence update, clamped into (0, 1].
	alpha := n.cfg.CE * ws
	n.err = clampError(alpha*eps + (1-alpha)*wi)

	// Lines 5-6: coordinate update. Spring force pushes apart when the
	// measurement exceeds the estimate (rtt - dist > 0) and pulls
	// together otherwise, along the unit vector from remote to us.
	delta := n.cfg.CC * ws
	if n.cfg.DampingConstant > 0 {
		delta *= n.cfg.DampingConstant / (n.cfg.DampingConstant + float64(n.updates))
	}
	force := delta * -gap // -gap == rtt - dist unless zeroed by the margin
	if colocated {
		// Bootstrap: all nodes start at the origin and need a random
		// push to separate. The direction scratch is reused across
		// updates.
		vec.RandomUnitInto(n.dir, n.rng.Float64)
		if err := n.coord.Vec.AddScaledInPlace(n.dir, force); err != nil {
			return err
		}
	} else {
		// Fused force step: x_i += (force/mag) * (x_i - x_j), one pass,
		// no temporaries.
		if err := n.coord.Vec.SubScaleAdd(n.coord.Vec, remote.Vec, force/mag); err != nil {
			return err
		}
	}
	if n.cfg.UseHeight && mag > 0 {
		// The height absorbs force proportionally to the stacked access
		// link latency (Dabek et al.'s model).
		h := n.coord.Height + (n.coord.Height+remote.Height)*force/mag
		n.coord.Height = math.Max(h, n.cfg.HeightMin)
	}
	n.updates++
	return nil
}

func clampError(w float64) float64 {
	if math.IsNaN(w) {
		return 1
	}
	if w < minErrorFloor {
		return minErrorFloor
	}
	if w > 1 {
		return 1
	}
	return w
}
