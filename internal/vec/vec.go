// Package vec provides small fixed-dimension Euclidean vector math used by
// the coordinate system. Vectors are plain float64 slices.
//
// Two API styles coexist:
//
//   - Value-style operations (Add, Sub, Scale, Centroid) allocate their
//     result. They read clearly and are fine anywhere off the per-sample
//     path.
//   - In-place operations (ScaleInPlace, AddScaledInPlace, the fused
//     SubScaleAdd, Set, RandomUnitInto) write into storage the caller
//     owns and perform zero heap allocations.
//     Everything the simulator's steady-state step touches comes from
//     this family (directly or via coord.CopyFrom), which is what makes
//     the per-sample path allocation-free.
//
// The package is deliberately minimal: network coordinates are low
// dimensional (the paper uses three dimensions), so clarity wins over
// BLAS-style tuning. Operations on vectors of mismatched dimension return
// an error rather than panicking, per the project's no-panic policy. The
// hot-path variants return the bare ErrDimensionMismatch sentinel instead
// of a wrapped description: constructing the fmt.Errorf wrapper is itself
// an allocation, and callers on the per-sample path validate dimensions
// once at construction, so the decorated message would never be seen.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two vectors of different
// dimensionality are combined.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// Vector is an n-dimensional point or displacement. The zero value is a
// zero-dimensional vector; use New or Zero to create one of a given
// dimension.
type Vector []float64

// Zero returns the origin of the given dimension.
func Zero(dim int) Vector {
	if dim <= 0 {
		return Vector{}
	}
	return make(Vector, dim)
}

// New builds a vector from the given components.
func New(components ...float64) Vector {
	v := make(Vector, len(components))
	copy(v, components)
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim reports the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Add returns v + w.
func (v Vector) Add(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("add %d-dim and %d-dim: %w", len(v), len(w), ErrDimensionMismatch)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out, nil
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("sub %d-dim and %d-dim: %w", len(v), len(w), ErrDimensionMismatch)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out, nil
}

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

// ScaleInPlace multiplies every component of v by s without allocating.
func (v Vector) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// AddScaledInPlace adds s*w into v without allocating: v += s*w.
func (v Vector) AddScaledInPlace(w Vector, s float64) error {
	if len(v) != len(w) {
		return ErrDimensionMismatch
	}
	for i := range v {
		v[i] += s * w[i]
	}
	return nil
}

// SubScaleAdd fuses the Vivaldi force step into one pass with no
// temporaries: v += s*(a - b). a and b may alias v (the update is purely
// element-wise). This is x_i += (force/||x_i-x_j||)*(x_i - x_j) without
// materializing either the difference or the unit direction.
func (v Vector) SubScaleAdd(a, b Vector, s float64) error {
	if len(v) != len(a) || len(a) != len(b) {
		return ErrDimensionMismatch
	}
	for i := range v {
		v[i] += s * (a[i] - b[i])
	}
	return nil
}

// Set overwrites v with w without allocating.
func (v Vector) Set(w Vector) error {
	if len(v) != len(w) {
		return ErrDimensionMismatch
	}
	copy(v, w)
	return nil
}

// Norm returns the Euclidean (L2) magnitude of v.
func (v Vector) Norm() float64 {
	var sum float64
	for _, c := range v {
		sum += c * c
	}
	return math.Sqrt(sum)
}

// Dist returns the Euclidean distance between v and w.
func (v Vector) Dist(w Vector) (float64, error) {
	if len(v) != len(w) {
		//nc:allow(hotpath) dimension-mismatch return: cold by definition
		return 0, fmt.Errorf("dist %d-dim and %d-dim: %w", len(v), len(w), ErrDimensionMismatch)
	}
	var sum float64
	for i := range v {
		d := v[i] - w[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// Equal reports whether v and w have the same dimension and components.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// IsFinite reports whether every component is a finite number. Coordinates
// received over the network must be validated with this before use: a
// single NaN would otherwise poison every coordinate it touches.
func (v Vector) IsFinite() bool {
	for _, c := range v {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// zeroThreshold is the magnitude below which two coordinates are treated
// as co-located, requiring a random direction for the repulsive force.
const zeroThreshold = 1e-6

// RandomUnitInto fills dst with a random unit vector without allocating,
// drawing components from random (which must yield values in [0,1)). It
// retries until the pre-normalization magnitude is safely above zero, so
// the result is always well-defined.
func RandomUnitInto(dst Vector, random func() float64) {
	for {
		var norm float64
		for i := range dst {
			dst[i] = random()*2 - 1
			norm += dst[i] * dst[i]
		}
		norm = math.Sqrt(norm)
		if norm > zeroThreshold {
			dst.ScaleInPlace(1 / norm)
			return
		}
	}
}

// Colocated reports whether a Euclidean separation is at or below the
// co-location threshold — the regime where Vivaldi substitutes a random
// push (RandomUnitInto) for the undefined unit direction. This is the
// standard Vivaldi bootstrap trick: nodes all start at the origin and
// need a random push to separate.
func Colocated(mag float64) bool { return mag <= zeroThreshold }

// Centroid returns the arithmetic mean of the given vectors. All vectors
// must share a dimension; an empty input returns an error.
func Centroid(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("vec: centroid of empty set")
	}
	dim := len(vs[0])
	sum := make(Vector, dim)
	for _, v := range vs {
		if len(v) != dim {
			return nil, fmt.Errorf("centroid with %d-dim and %d-dim members: %w", dim, len(v), ErrDimensionMismatch)
		}
		for i := range v {
			sum[i] += v[i]
		}
	}
	return sum.Scale(1 / float64(len(vs))), nil
}

// String renders the vector in a compact bracketed form.
func (v Vector) String() string {
	out := "["
	for i, c := range v {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%.3f", c)
	}
	return out + "]"
}
