// Package coord defines the network coordinate type shared by the Vivaldi
// engine, the change-detection heuristics, and the wire protocol.
//
// A Coordinate is a point in a low-dimensional Euclidean space whose
// pairwise distances estimate round-trip latency in milliseconds. The
// paper's experiments use a pure three-dimensional metric space; an
// optional non-Euclidean height term (Dabek et al.'s model for access-link
// latency) is supported but defaults to zero so that distances reduce to
// the plain Euclidean metric.
package coord

import (
	"errors"
	"fmt"
	"math"

	"netcoord/internal/vec"
)

// DefaultDimension is the coordinate dimensionality used throughout the
// paper's evaluation ("We present results using three dimensions").
const DefaultDimension = 3

// ErrInvalid is returned when a coordinate fails validation — wrong
// dimension, NaN/Inf components, or a negative height. Coordinates
// received from the network must be validated before they are allowed to
// tug on local state.
var ErrInvalid = errors.New("coord: invalid coordinate")

// Coordinate is a position in the latency space. Units are milliseconds:
// the distance between two coordinates estimates the round-trip time
// between their nodes.
//
// Coordinate values are treated as immutable once published; operations
// return new values rather than mutating in place.
type Coordinate struct {
	// Vec is the Euclidean component of the coordinate.
	Vec vec.Vector
	// Height is the non-Euclidean access-link component. The effective
	// distance between nodes i and j is ||vec_i - vec_j|| + h_i + h_j.
	// Always >= 0; zero disables the height model.
	Height float64
}

// Origin returns the zero coordinate of the given dimension, where every
// node begins before its first observation.
func Origin(dim int) Coordinate {
	return Coordinate{Vec: vec.Zero(dim)}
}

// New builds a coordinate from Euclidean components with zero height.
func New(components ...float64) Coordinate {
	return Coordinate{Vec: vec.New(components...)}
}

// Clone returns an independent deep copy of c.
func (c Coordinate) Clone() Coordinate {
	return Coordinate{Vec: c.Vec.Clone(), Height: c.Height}
}

// CopyFrom overwrites c with other, reusing c's backing vector when the
// dimensions match so steady-state copies perform no allocation. It is
// the in-place counterpart of Clone for hot paths that maintain a
// long-lived scratch coordinate.
func (c *Coordinate) CopyFrom(other Coordinate) {
	if c.Vec.Set(other.Vec) != nil {
		// Dimension changed: fall back to a fresh clone.
		//nc:allow(hotpath) dimension-change fallback: cold by definition
		c.Vec = other.Vec.Clone()
	}
	c.Height = other.Height
}

// Dim reports the Euclidean dimensionality of the coordinate.
func (c Coordinate) Dim() int { return c.Vec.Dim() }

// Validate checks that the coordinate is safe to use: the expected
// dimension, finite components, and a finite non-negative height.
func (c Coordinate) Validate(dim int) error {
	if c.Vec.Dim() != dim {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("%w: dimension %d, want %d", ErrInvalid, c.Vec.Dim(), dim)
	}
	if !c.Vec.IsFinite() {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("%w: non-finite component in %v", ErrInvalid, c.Vec)
	}
	if math.IsNaN(c.Height) || math.IsInf(c.Height, 0) || c.Height < 0 {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return fmt.Errorf("%w: height %v", ErrInvalid, c.Height)
	}
	return nil
}

// DistanceTo returns the estimated round-trip time in milliseconds
// between c and other: the Euclidean distance plus both heights.
func (c Coordinate) DistanceTo(other Coordinate) (float64, error) {
	d, err := c.Vec.Dist(other.Vec)
	if err != nil {
		//nc:allow(hotpath) dimension-mismatch return: cold by definition
		return 0, fmt.Errorf("coordinate distance: %w", err)
	}
	return d + c.Height + other.Height, nil
}

// DisplacementFrom returns the magnitude of coordinate movement from prev
// to c — the quantity summed by the paper's instability metric. Height
// changes contribute their absolute delta, consistent with heights being
// part of the distance estimate.
func (c Coordinate) DisplacementFrom(prev Coordinate) (float64, error) {
	d, err := c.Vec.Dist(prev.Vec)
	if err != nil {
		//nc:allow(hotpath) dimension-mismatch return: cold by definition
		return 0, fmt.Errorf("coordinate displacement: %w", err)
	}
	return d + math.Abs(c.Height-prev.Height), nil
}

// Equal reports exact equality of position and height.
func (c Coordinate) Equal(other Coordinate) bool {
	return c.Height == other.Height && c.Vec.Equal(other.Vec)
}

// String renders the coordinate for logs and debugging.
func (c Coordinate) String() string {
	if c.Height == 0 {
		return c.Vec.String()
	}
	return fmt.Sprintf("%s+h%.3f", c.Vec, c.Height)
}

// Centroid returns the arithmetic mean of the given coordinates —
// the value the window-based heuristics publish as the application-level
// coordinate. Heights average as well.
func Centroid(cs []Coordinate) (Coordinate, error) {
	if len(cs) == 0 {
		return Coordinate{}, errors.New("coord: centroid of empty set")
	}
	vs := make([]vec.Vector, len(cs))
	var h float64
	for i, c := range cs {
		vs[i] = c.Vec
		h += c.Height
	}
	mean, err := vec.Centroid(vs)
	if err != nil {
		return Coordinate{}, fmt.Errorf("coordinate centroid: %w", err)
	}
	return Coordinate{Vec: mean, Height: h / float64(len(cs))}, nil
}
