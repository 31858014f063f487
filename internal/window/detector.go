package window

import (
	"fmt"

	"netcoord/internal/vec"
)

// Detector decides whether a full window pair has diverged — i.e. whether
// the coordinate stream has undergone a significant change. The two
// multi-dimensional tests from the paper are provided; both only fire
// when the pair is full.
type Detector interface {
	// Diverged reports whether Ws and Wc differ significantly. Only
	// meaningful when p.Full(); implementations return false otherwise.
	Diverged(p *Pair) (bool, error)
}

// EnergyDetector fires when the energy statistic e(Ws, Wc) exceeds a
// threshold tau. The paper uses tau = 8 with window size 32 on PlanetLab.
type EnergyDetector struct {
	// Tau is the energy threshold (milliseconds scale, like the
	// coordinate space).
	Tau float64
}

// NewEnergyDetector validates and builds an EnergyDetector.
func NewEnergyDetector(tau float64) (*EnergyDetector, error) {
	if !(tau > 0) {
		return nil, fmt.Errorf("window: energy threshold %v, want > 0", tau)
	}
	return &EnergyDetector{Tau: tau}, nil
}

// Diverged implements Detector.
func (d *EnergyDetector) Diverged(p *Pair) (bool, error) {
	if !p.Full() {
		return false, nil
	}
	e, err := p.Energy()
	if err != nil {
		//nc:allow(hotpath) not-full return: cold by definition
		return false, fmt.Errorf("energy detector: %w", err)
	}
	return e > d.Tau, nil
}

// RelativeDetector fires when the centroid displacement between the two
// windows, normalized by the distance from C(Ws) to the node's nearest
// known neighbor r, exceeds epsilon:
//
//	||C(Ws) - C(Wc)|| / ||C(Ws) - r|| > epsilon
//
// The normalization makes updates "relative to the node's locale": a
// 5 ms wobble is significant inside a metro cluster and noise across an
// ocean. The paper uses epsilon = 0.3 with window size 32.
type RelativeDetector struct {
	// Epsilon is the relative-change threshold.
	Epsilon float64
}

// NewRelativeDetector validates and builds a RelativeDetector.
func NewRelativeDetector(epsilon float64) (*RelativeDetector, error) {
	if !(epsilon > 0) {
		return nil, fmt.Errorf("window: relative threshold %v, want > 0", epsilon)
	}
	return &RelativeDetector{Epsilon: epsilon}, nil
}

// DivergedFrom reports divergence given the nearest neighbor's coordinate
// vector. hasNeighbor is false while the node has not yet learned any
// neighbor coordinate; the detector never fires then (there is no locale
// to be relative to).
func (d *RelativeDetector) DivergedFrom(p *Pair, neighbor vec.Vector, hasNeighbor bool) (bool, error) {
	if !p.Full() || !hasNeighbor {
		return false, nil
	}
	cs, err := p.StartCentroid()
	if err != nil {
		return false, fmt.Errorf("relative detector: %w", err)
	}
	cc, err := p.CurrentCentroid()
	if err != nil {
		return false, fmt.Errorf("relative detector: %w", err)
	}
	moved, err := cs.Dist(cc)
	if err != nil {
		return false, fmt.Errorf("relative detector: %w", err)
	}
	scale, err := cs.Dist(neighbor)
	if err != nil {
		return false, fmt.Errorf("relative detector: %w", err)
	}
	if scale <= 0 {
		// The neighbor sits exactly on the start centroid; any movement
		// at all is infinitely significant relative to a zero locale.
		return moved > 0, nil
	}
	return moved/scale > d.Epsilon, nil
}
