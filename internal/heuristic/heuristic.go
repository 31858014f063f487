// Package heuristic implements the paper's application-update policies
// (Section V-B): the rules that decide when the application-level
// coordinate c_a should follow the continuously evolving system-level
// coordinate c_s, and what value it should take.
//
// Six policies are provided:
//
//   - Direct: c_a = c_s on every observation (the "Raw" rows in the
//     paper's figures — no application-level suppression at all).
//   - System: update when the per-observation system movement
//     ||c_s(t) - c_s(t-1)|| exceeds a threshold.
//   - Application: update when the accumulated drift ||c_a - c_s||
//     exceeds a threshold.
//   - Relative: two-window change detection; update when the window
//     centroid shift, relative to the distance to the nearest known
//     neighbor, exceeds a threshold. Publishes the current window's
//     centroid.
//   - Energy: two-window change detection with the Szekely-Rizzo energy
//     statistic. Publishes the current window's centroid. This is the
//     configuration the paper deploys on PlanetLab (window 32, tau 8).
//   - ApplicationCentroid: the Section V-G hybrid — Application's
//     threshold rule but publishing the centroid of recent system
//     coordinates. Shows that the *when* matters, not just the *what*.
//
// Policies are not safe for concurrent use; each node owns one.
package heuristic

import (
	"errors"
	"fmt"

	"netcoord/internal/coord"
	"netcoord/internal/vec"
	"netcoord/internal/window"
)

// Paper defaults for the window-based policies (Sections V-D, VI).
const (
	// DefaultWindow is the window size used on PlanetLab.
	DefaultWindow = 32
	// DefaultEnergyTau is the energy threshold used on PlanetLab.
	DefaultEnergyTau = 8.0
	// DefaultRelativeEpsilon is the most conservative RELATIVE threshold
	// that still grants a stability increase (Figure 8).
	DefaultRelativeEpsilon = 0.3
	// DefaultThresholdTau is the threshold of the windowless policies —
	// System, Application and the ApplicationCentroid hybrid: Figure 10's
	// only workable setting.
	DefaultThresholdTau = 16.0
)

// ErrDimension is returned when an observation's dimension does not match
// the policy's.
var ErrDimension = errors.New("heuristic: dimension mismatch")

// Observation carries one system-coordinate update into a policy.
type Observation struct {
	// Sys is the node's system-level coordinate after the latest Vivaldi
	// update.
	Sys coord.Coordinate
	// Neighbor is the coordinate of the node's nearest known neighbor
	// (by filtered latency); only the RELATIVE policy consumes it.
	Neighbor coord.Coordinate
	// HasNeighbor is false until the node has learned at least one
	// neighbor coordinate.
	HasNeighbor bool
}

// Policy decides when the application-level coordinate changes.
//
// Policies maintain their state in preallocated buffers: the steady-state
// Observe path of each of the paper's six policies performs zero heap
// allocations, because it runs once per latency observation of every
// node in the simulator (locked in by TestObserveSteadyStateZeroAllocs).
// The RankSum extension baseline is the exception: its detector projects
// both windows per observation and is only used by the extension
// experiment, not by any deployed configuration.
type Policy interface {
	// Observe feeds one system-coordinate update and reports the
	// resulting application coordinate and whether it changed now. The
	// returned coordinate is a read-only view of internal state, valid
	// until the next Observe or Reset call; callers that retain it
	// across observations must Clone it.
	Observe(obs Observation) (app coord.Coordinate, changed bool, err error)
	// App returns an independent copy of the current application-level
	// coordinate.
	App() coord.Coordinate
	// AppRef returns the current application-level coordinate without
	// copying. Like Observe's return, it is a read-only view valid until
	// the next Observe or Reset.
	AppRef() coord.Coordinate
	// Name identifies the policy in experiment output.
	Name() string
	// Reset returns the policy to its initial state.
	Reset()
}

// base carries the application coordinate and first-observation handling
// shared by all policies: every policy adopts the very first system
// coordinate it sees (there is no meaningful prior value to preserve).
type base struct {
	app    coord.Coordinate
	primed bool
	dim    int
}

func (b *base) App() coord.Coordinate { return b.app.Clone() }

func (b *base) AppRef() coord.Coordinate { return b.app }

// setApp overwrites the application coordinate in place, reusing its
// preallocated vector.
func (b *base) setApp(c coord.Coordinate) { b.app.CopyFrom(c) }

// prime returns true (and adopts sys) on the first observation.
func (b *base) prime(sys coord.Coordinate) (bool, error) {
	if err := sys.Validate(b.dim); err != nil {
		//nc:allow(hotpath) validation-failure return: cold by definition
		return false, fmt.Errorf("%w: %v", ErrDimension, err)
	}
	if b.primed {
		return false, nil
	}
	b.app.CopyFrom(sys)
	b.primed = true
	return true, nil
}

func (b *base) reset(dim int) {
	b.app = coord.Origin(dim)
	b.primed = false
}

// --- Direct ----------------------------------------------------------------

// Direct publishes every system coordinate unmodified.
type Direct struct {
	base
}

// NewDirect builds the pass-through policy for coordinates of the given
// dimension.
func NewDirect(dim int) (*Direct, error) {
	if dim < 1 {
		return nil, fmt.Errorf("heuristic: dimension %d, want >= 1", dim)
	}
	return &Direct{base: base{app: coord.Origin(dim), dim: dim}}, nil
}

// Observe implements Policy.
func (d *Direct) Observe(obs Observation) (coord.Coordinate, bool, error) {
	if err := obs.Sys.Validate(d.dim); err != nil {
		return d.app, false, fmt.Errorf("%w: %v", ErrDimension, err)
	}
	changed := !d.primed || !d.app.Equal(obs.Sys)
	d.setApp(obs.Sys)
	d.primed = true
	return d.app, changed, nil
}

// Name implements Policy.
func (*Direct) Name() string { return "direct" }

// Reset implements Policy.
func (d *Direct) Reset() { d.reset(d.dim) }

// --- System -----------------------------------------------------------------

// System updates c_a when one observation moves the system coordinate by
// more than Tau: ||c_s(t) - c_s(t-1)|| > tau. Its pathology, noted in the
// paper: a long run of sub-threshold steps accumulates unbounded error
// without ever updating.
type System struct {
	base
	tau     float64
	prev    coord.Coordinate
	prevSet bool
}

// NewSystem builds the SYSTEM policy.
func NewSystem(dim int, tau float64) (*System, error) {
	if dim < 1 {
		return nil, fmt.Errorf("heuristic: dimension %d, want >= 1", dim)
	}
	if !(tau > 0) {
		return nil, fmt.Errorf("heuristic: system threshold %v, want > 0", tau)
	}
	return &System{
		base: base{app: coord.Origin(dim), dim: dim},
		tau:  tau,
		prev: coord.Origin(dim),
	}, nil
}

// Observe implements Policy.
func (s *System) Observe(obs Observation) (coord.Coordinate, bool, error) {
	first, err := s.prime(obs.Sys)
	if err != nil {
		return s.app, false, err
	}
	changed := first
	if !first {
		moved, err := obs.Sys.DisplacementFrom(s.prev)
		if err != nil {
			s.rememberPrev(obs.Sys)
			return s.app, false, fmt.Errorf("system policy: %w", err)
		}
		if moved > s.tau {
			s.setApp(obs.Sys)
			changed = true
		}
	}
	s.rememberPrev(obs.Sys)
	return s.app, changed, nil
}

// rememberPrev records the latest system coordinate in the preallocated
// previous-step buffer.
func (s *System) rememberPrev(sys coord.Coordinate) {
	s.prev.CopyFrom(sys)
	s.prevSet = true
}

// Name implements Policy.
func (*System) Name() string { return "system" }

// Reset implements Policy.
func (s *System) Reset() {
	s.reset(s.dim)
	s.prevSet = false
}

// --- Application -------------------------------------------------------------

// Application updates c_a when it has drifted more than Tau from the
// system coordinate: ||c_a - c_s|| > tau. Catches slow drift (unlike
// System) but permits oscillation beneath the threshold.
type Application struct {
	base
	tau float64
}

// NewApplication builds the APPLICATION policy.
func NewApplication(dim int, tau float64) (*Application, error) {
	if dim < 1 {
		return nil, fmt.Errorf("heuristic: dimension %d, want >= 1", dim)
	}
	if !(tau > 0) {
		return nil, fmt.Errorf("heuristic: application threshold %v, want > 0", tau)
	}
	return &Application{base: base{app: coord.Origin(dim), dim: dim}, tau: tau}, nil
}

// Observe implements Policy.
func (a *Application) Observe(obs Observation) (coord.Coordinate, bool, error) {
	first, err := a.prime(obs.Sys)
	if err != nil {
		return a.app, false, err
	}
	if first {
		return a.app, true, nil
	}
	drift, err := a.app.DisplacementFrom(obs.Sys)
	if err != nil {
		return a.app, false, fmt.Errorf("application policy: %w", err)
	}
	if drift > a.tau {
		a.setApp(obs.Sys)
		return a.app, true, nil
	}
	return a.app, false, nil
}

// Name implements Policy.
func (*Application) Name() string { return "application" }

// Reset implements Policy.
func (a *Application) Reset() { a.reset(a.dim) }

// --- window-based machinery ---------------------------------------------------

// windowed embeds the two-window pair plus a mirror ring of full
// coordinates (the pair stores only the Euclidean vectors; the mirror
// preserves heights so the published centroid is a complete coordinate).
// Mirror slots and the centroid output buffer are preallocated so the
// per-observation path allocates nothing.
type windowed struct {
	base
	pair     *window.Pair
	mirror   []coord.Coordinate
	mhead    int
	mlen     int
	centroid coord.Coordinate // reusable currentCentroid output
}

func newWindowed(dim, k int) (windowed, error) {
	p, err := window.NewPair(k, dim)
	if err != nil {
		return windowed{}, err
	}
	w := windowed{
		base:     base{app: coord.Origin(dim), dim: dim},
		pair:     p,
		mirror:   make([]coord.Coordinate, k),
		centroid: coord.Origin(dim),
	}
	buf := make([]float64, k*dim) // one backing array for the ring's vectors
	for i := range w.mirror {
		w.mirror[i].Vec = buf[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return w, nil
}

func (w *windowed) push(sys coord.Coordinate) error {
	if err := w.pair.Append(sys.Vec); err != nil {
		return err
	}
	k := len(w.mirror)
	if w.mlen < k {
		w.mirror[w.mlen].CopyFrom(sys)
		w.mlen++
		return nil
	}
	w.mirror[w.mhead].CopyFrom(sys)
	w.mhead = (w.mhead + 1) % k
	return nil
}

// centroidInto computes the centroid of the first n ring slots (arrival
// order, oldest at head) into dst without allocating. dst must be
// pre-sized to the ring's dimension.
func centroidInto(dst *coord.Coordinate, ring []coord.Coordinate, head, n int) error {
	if n == 0 {
		//nc:allow(hotpath) empty-window return: cold by definition
		return errors.New("heuristic: centroid of empty window")
	}
	for i := range dst.Vec {
		dst.Vec[i] = 0
	}
	var h float64
	k := len(ring)
	for i := 0; i < n; i++ {
		m := ring[(head+i)%k]
		for j := range dst.Vec {
			dst.Vec[j] += m.Vec[j]
		}
		h += m.Height
	}
	dst.Vec.ScaleInPlace(1 / float64(n))
	dst.Height = h / float64(n)
	return nil
}

// currentCentroid computes the centroid of the mirrored current window
// into the reusable output buffer. The result aliases internal state and
// is valid until the next currentCentroid call; callers publish it with
// setApp (which copies).
func (w *windowed) currentCentroid() (coord.Coordinate, error) {
	if err := centroidInto(&w.centroid, w.mirror, w.mhead, w.mlen); err != nil {
		return coord.Coordinate{}, err
	}
	return w.centroid, nil
}

func (w *windowed) resetWindows() {
	w.pair.Reset()
	w.mhead, w.mlen = 0, 0
}

// --- Relative --------------------------------------------------------------

// Relative is the first window-based policy: it fires when the window
// centroid shift, normalized by the distance from the start centroid to
// the nearest known neighbor, exceeds Epsilon; it then publishes C(Wc)
// and restarts both windows.
type Relative struct {
	windowed
	det *window.RelativeDetector
}

// NewRelative builds the RELATIVE policy with window size k and threshold
// epsilon.
func NewRelative(dim, k int, epsilon float64) (*Relative, error) {
	w, err := newWindowed(dim, k)
	if err != nil {
		return nil, err
	}
	det, err := window.NewRelativeDetector(epsilon)
	if err != nil {
		return nil, err
	}
	return &Relative{windowed: w, det: det}, nil
}

// Observe implements Policy.
func (r *Relative) Observe(obs Observation) (coord.Coordinate, bool, error) {
	first, err := r.prime(obs.Sys)
	if err != nil {
		return r.app, false, err
	}
	if err := r.push(obs.Sys); err != nil {
		return r.app, false, fmt.Errorf("relative policy: %w", err)
	}
	if first {
		return r.app, true, nil
	}
	var neighborVec vec.Vector
	if obs.HasNeighbor {
		neighborVec = obs.Neighbor.Vec
	}
	fired, err := r.det.DivergedFrom(r.pair, neighborVec, obs.HasNeighbor)
	if err != nil {
		return r.app, false, fmt.Errorf("relative policy: %w", err)
	}
	if !fired {
		return r.app, false, nil
	}
	centroid, err := r.currentCentroid()
	if err != nil {
		return r.app, false, fmt.Errorf("relative policy: %w", err)
	}
	r.setApp(centroid)
	r.resetWindows()
	return r.app, true, nil
}

// Name implements Policy.
func (*Relative) Name() string { return "relative" }

// Reset implements Policy.
func (r *Relative) Reset() {
	r.reset(r.dim)
	r.resetWindows()
}

// --- Energy ---------------------------------------------------------------

// Energy fires when the energy statistic between the start and current
// windows exceeds Tau, publishing C(Wc). The paper's deployed
// configuration.
type Energy struct {
	windowed
	det *window.EnergyDetector
}

// NewEnergy builds the ENERGY policy with window size k and threshold
// tau.
func NewEnergy(dim, k int, tau float64) (*Energy, error) {
	w, err := newWindowed(dim, k)
	if err != nil {
		return nil, err
	}
	det, err := window.NewEnergyDetector(tau)
	if err != nil {
		return nil, err
	}
	return &Energy{windowed: w, det: det}, nil
}

// Observe implements Policy.
//
//nc:hotpath
func (e *Energy) Observe(obs Observation) (coord.Coordinate, bool, error) {
	first, err := e.prime(obs.Sys)
	if err != nil {
		return e.app, false, err
	}
	if err := e.push(obs.Sys); err != nil {
		//nc:allow(hotpath) dimension-mismatch return: cold by definition
		return e.app, false, fmt.Errorf("energy policy: %w", err)
	}
	if first {
		return e.app, true, nil
	}
	fired, err := e.det.Diverged(e.pair)
	if err != nil {
		//nc:allow(hotpath) detector-failure return: cold by definition
		return e.app, false, fmt.Errorf("energy policy: %w", err)
	}
	if !fired {
		return e.app, false, nil
	}
	centroid, err := e.currentCentroid()
	if err != nil {
		//nc:allow(hotpath) empty-window return: cold by definition
		return e.app, false, fmt.Errorf("energy policy: %w", err)
	}
	e.setApp(centroid)
	e.resetWindows()
	return e.app, true, nil
}

// Name implements Policy.
func (*Energy) Name() string { return "energy" }

// Reset implements Policy.
func (e *Energy) Reset() {
	e.reset(e.dim)
	e.resetWindows()
}

// --- Application/Centroid ----------------------------------------------------

// ApplicationCentroid is the Section V-G hybrid: Application's trigger
// (||c_a - c_s|| > tau) publishing the centroid of the last K system
// coordinates. The paper shows it is more stable than plain Application
// but, lacking a window-based trigger, remains fragile to its threshold.
type ApplicationCentroid struct {
	base
	tau      float64
	ring     []coord.Coordinate
	head     int
	n        int
	centroid coord.Coordinate // reusable centroid output
}

// NewApplicationCentroid builds the APPLICATION/CENTROID policy.
func NewApplicationCentroid(dim, k int, tau float64) (*ApplicationCentroid, error) {
	if dim < 1 {
		return nil, fmt.Errorf("heuristic: dimension %d, want >= 1", dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("heuristic: window %d, want >= 1", k)
	}
	if !(tau > 0) {
		return nil, fmt.Errorf("heuristic: threshold %v, want > 0", tau)
	}
	ac := &ApplicationCentroid{
		base:     base{app: coord.Origin(dim), dim: dim},
		tau:      tau,
		ring:     make([]coord.Coordinate, k),
		centroid: coord.Origin(dim),
	}
	for i := range ac.ring {
		ac.ring[i] = coord.Origin(dim)
	}
	return ac, nil
}

// Observe implements Policy.
func (a *ApplicationCentroid) Observe(obs Observation) (coord.Coordinate, bool, error) {
	first, err := a.prime(obs.Sys)
	if err != nil {
		return a.app, false, err
	}
	if a.n < len(a.ring) {
		a.ring[a.n].CopyFrom(obs.Sys)
		a.n++
	} else {
		a.ring[a.head].CopyFrom(obs.Sys)
		a.head = (a.head + 1) % len(a.ring)
	}
	if first {
		return a.app, true, nil
	}
	drift, err := a.app.DisplacementFrom(obs.Sys)
	if err != nil {
		return a.app, false, fmt.Errorf("application/centroid policy: %w", err)
	}
	if drift <= a.tau {
		return a.app, false, nil
	}
	if err := centroidInto(&a.centroid, a.ring, a.head, a.n); err != nil {
		return a.app, false, fmt.Errorf("application/centroid policy: %w", err)
	}
	a.setApp(a.centroid)
	return a.app, true, nil
}

// Name implements Policy.
func (*ApplicationCentroid) Name() string { return "application-centroid" }

// Reset implements Policy.
func (a *ApplicationCentroid) Reset() {
	a.reset(a.dim)
	a.head, a.n = 0, 0
}

// Interface conformance checks.
var (
	_ Policy = (*Direct)(nil)
	_ Policy = (*System)(nil)
	_ Policy = (*Application)(nil)
	_ Policy = (*Relative)(nil)
	_ Policy = (*Energy)(nil)
	_ Policy = (*ApplicationCentroid)(nil)
)
