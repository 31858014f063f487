// Package endpoint is the paper's per-node observation pipeline, written
// once: raw RTT -> per-link MP filter -> nearest-neighbor bookkeeping ->
// Vivaldi update -> application-update heuristic. The simulator
// (internal/sim, keyed by node index), the live UDP node (internal/node,
// keyed by address) and the public netcoord.Client (keyed by peer id)
// each own one Endpoint per participant and add only what is theirs: a
// tick-start snapshot and metric collectors, a transport and neighbor
// set, a lock and a peer table. Each hands its Endpoint the per-link
// filter table that fits its keys: the simulator a filter.Dense indexed
// by node id, the live node and Client a bounded filter.Bank map.
//
// Invariants every caller inherits from Observe:
//
//   - a sample whose RTT is NaN, infinite or <= 0, or whose remote
//     coordinate has the wrong dimension, a non-finite component or a
//     negative height, is refused before any state sees it;
//   - the nearest neighbor's coordinate is copied, never aliased;
//   - the success path performs zero heap allocations.
//
// An Endpoint is not safe for concurrent use; the owner serializes
// access.
package endpoint

import (
	"fmt"
	"math"

	"netcoord/internal/coord"
	"netcoord/internal/heuristic"
	"netcoord/internal/vivaldi"
)

// Links is the per-link filter table an Endpoint routes every sample
// through: filter.Bank[K] for any key, filter.Dense for node ids.
type Links[K comparable] interface {
	// Observe filters one sample of the link to peer.
	Observe(peer K, sample float64) (estimate float64, ok bool)
	// Forget drops peer's filter state.
	Forget(peer K)
	// Reset restarts every link's filter.
	Reset()
	// Peers reports how many links hold filter state.
	Peers() int
}

// Endpoint is one participant's coordinate state.
type Endpoint[K comparable] struct {
	viv    *vivaldi.Node
	links  Links[K]
	policy heuristic.Policy
	dim    int

	// Nearest neighbor by filtered latency, the RELATIVE policy's
	// reference point: the paper's nodes learn an approximate nearest
	// neighbor from the latency samples themselves.
	nnKey   K
	nnDist  float64
	nnCoord coord.Coordinate
	hasNN   bool

	// Scratch for displacement measurement, reused every observation.
	prevSys coord.Coordinate
	prevApp coord.Coordinate
}

// Result is what one observation did.
type Result struct {
	// Predicted is the RTT the system coordinate predicted for the remote
	// before the update — the paper measures relative error against the
	// raw sample at this point (Section II-A).
	Predicted float64
	// Filtered is the per-link filter's output; Released is false while
	// the filter is still warming up, in which case nothing below moved.
	Filtered float64
	Released bool
	// SysMoved and AppMoved are the system- and application-level
	// coordinate displacements this observation caused.
	SysMoved float64
	AppMoved float64
	// AppChanged reports whether the policy changed the application-level
	// coordinate now.
	AppChanged bool
}

// New builds an endpoint at the origin that filters each link through
// links (filter.NewBank and filter.NewDense read a nil factory as the
// paper's "No Filter" configuration). A nil policy means Direct (the
// application coordinate follows the system coordinate).
func New[K comparable](cfg vivaldi.Config, links Links[K], policy heuristic.Policy) (*Endpoint[K], error) {
	viv, err := vivaldi.New(cfg)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		if policy, err = heuristic.NewDirect(cfg.Dimension); err != nil {
			return nil, err
		}
	}
	// Checked once here so the per-sample path can rely on compatible
	// dimensions.
	if got := policy.AppRef().Dim(); got != cfg.Dimension {
		return nil, fmt.Errorf("policy dimension %d, want %d", got, cfg.Dimension)
	}
	return &Endpoint[K]{
		viv:     viv,
		links:   links,
		policy:  policy,
		dim:     cfg.Dimension,
		nnDist:  math.Inf(1),
		nnCoord: coord.Origin(cfg.Dimension),
		prevSys: coord.Origin(cfg.Dimension),
		prevApp: coord.Origin(cfg.Dimension),
	}, nil
}

// Observe runs one RTT measurement (milliseconds) of the remote keyed by
// key, with the remote's coordinate and error weight, through the whole
// chain. A refused sample returns an error matching vivaldi.ErrBadSample
// or coord.ErrInvalid and leaves every piece of state untouched.
//
//nc:hotpath
func (e *Endpoint[K]) Observe(key K, rtt float64, remote coord.Coordinate, remoteErr float64) (Result, error) {
	if !(rtt > 0) || math.IsInf(rtt, 1) {
		return Result{}, vivaldi.ErrBadSample
	}
	if err := remote.Validate(e.dim); err != nil {
		return Result{}, err
	}
	// The Euclidean separation behind the prediction is reused by the
	// Vivaldi update below instead of being recomputed.
	predicted, sep, err := e.viv.EstimateWithSeparation(remote)
	if err != nil {
		return Result{}, err
	}
	filtered, released := e.links.Observe(key, rtt)
	if !released {
		return Result{Predicted: predicted, Filtered: filtered}, nil
	}
	if filtered < e.nnDist || key == e.nnKey {
		e.nnKey = key
		e.nnDist = filtered
		e.nnCoord.CopyFrom(remote)
		e.hasNN = true
	}

	e.prevSys.CopyFrom(e.viv.CoordinateRef())
	if err := e.viv.UpdateWithSeparation(filtered, remote, remoteErr, sep); err != nil {
		return Result{}, err
	}
	sysMoved, err := e.viv.CoordinateRef().DisplacementFrom(e.prevSys)
	if err != nil {
		return Result{}, err
	}

	e.prevApp.CopyFrom(e.policy.AppRef())
	app, changed, err := e.policy.Observe(heuristic.Observation{
		Sys:         e.viv.CoordinateRef(),
		Neighbor:    e.nnCoord,
		HasNeighbor: e.hasNN,
	})
	if err != nil {
		return Result{}, err
	}
	appMoved, err := app.DisplacementFrom(e.prevApp)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Predicted:  predicted,
		Filtered:   filtered,
		Released:   true,
		SysMoved:   sysMoved,
		AppMoved:   appMoved,
		AppChanged: changed,
	}, nil
}

// Forget drops the per-link filter state of a departed peer and, when it
// was the nearest neighbor, that too — otherwise the RELATIVE policy
// keeps measuring centroid shift against a stale coordinate and no
// farther peer can ever displace its distance.
func (e *Endpoint[K]) Forget(key K) {
	e.links.Forget(key)
	if e.hasNN && e.nnKey == key {
		var zero K
		e.nnKey, e.nnDist, e.hasNN = zero, math.Inf(1), false
	}
}

// Restore loads persisted state: the system coordinate and error weight
// (clamped into (0, 1]) as given, the policy reset and re-primed with the
// persisted application coordinate, and every per-link filter restarted —
// their short histories are stale after any downtime.
func (e *Endpoint[K]) Restore(sys, app coord.Coordinate, errWeight float64) error {
	if err := app.Validate(e.dim); err != nil {
		return err
	}
	if err := e.viv.SetCoordinate(sys); err != nil {
		return err
	}
	e.viv.SetError(errWeight)
	e.policy.Reset()
	if _, _, err := e.policy.Observe(heuristic.Observation{Sys: app}); err != nil {
		return err
	}
	e.links.Reset()
	return nil
}

// Sys returns the live system-level coordinate without copying: a
// read-only view that changes on the next Observe or Restore.
func (e *Endpoint[K]) Sys() coord.Coordinate { return e.viv.CoordinateRef() }

// App returns the live application-level coordinate, a read-only view
// like Sys.
func (e *Endpoint[K]) App() coord.Coordinate { return e.policy.AppRef() }

// Error returns the Vivaldi error weight w in (0, 1]; confidence, the
// paper's Figure 6 quantity, is 1 - w.
func (e *Endpoint[K]) Error() float64 { return e.viv.Error() }

// Links reports how many peers hold filter state.
func (e *Endpoint[K]) Links() int { return e.links.Peers() }

// Neighbor returns the current nearest neighbor's key and a view of its
// coordinate as copied when it was last observed.
func (e *Endpoint[K]) Neighbor() (K, coord.Coordinate, bool) {
	return e.nnKey, e.nnCoord, e.hasNN
}
