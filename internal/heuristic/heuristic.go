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
// RankSum, an extension baseline, is a seventh: the two-window scheme
// with a one-dimensional Wilcoxon rank-sum test.
//
// Relative, Energy and RankSum share one skeleton (windowed): each
// supplies only its threshold test on a statistic internal/window's Pair
// computes. Choices is the one table of the policies a configuration can
// select, with their paper-default thresholds.
//
// Policies are not safe for concurrent use; each node owns one.
package heuristic

import (
	"errors"
	"fmt"
	"math"

	"netcoord/internal/coord"
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
// The RankSum extension baseline is the exception: its statistic projects
// both windows per test and is only used by the extension experiment,
// not by any deployed configuration.
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
	tau  float64
	prev coord.Coordinate
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
			s.prev.CopyFrom(obs.Sys)
			return s.app, false, fmt.Errorf("system policy: %w", err)
		}
		if moved > s.tau {
			s.setApp(obs.Sys)
			changed = true
		}
	}
	s.prev.CopyFrom(obs.Sys)
	return s.app, changed, nil
}

// Name implements Policy.
func (*System) Name() string { return "system" }

// Reset implements Policy.
func (s *System) Reset() { s.reset(s.dim) }

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

// windowed is the skeleton the two-window policies share (Section V-A):
// adopt the first observation, push every system coordinate into the
// window pair, and once both windows are full let the policy's test
// decide; on a change point publish C(Wc) and restart both windows.
// Each policy's Observe is admit, its own statistic against its own
// threshold, then settle — called directly, so the ENERGY path makes no
// indirect call.
//
// The pair keeps only the Euclidean vectors. heights, the last k
// heights, completes C(Wc) as a coordinate. A test needs k pushes since
// the last restart, so the ring then holds exactly Wc's heights and
// never needs clearing.
type windowed struct {
	base
	pair      *window.Pair
	heights   []float64
	slot      int     // where the next height goes: the oldest once k are in
	threshold float64 // the policy's; > 0
	what      string  // the policy's name in errors
}

func newWindowed(dim, k int, threshold float64, what string) (windowed, error) {
	p, err := window.NewPair(k, dim)
	if err != nil {
		return windowed{}, err
	}
	if !(threshold > 0) {
		return windowed{}, fmt.Errorf("heuristic: %s threshold %v, want > 0", what, threshold)
	}
	return windowed{
		base:      base{app: coord.Origin(dim), dim: dim},
		pair:      p,
		heights:   make([]float64, k),
		threshold: threshold,
		what:      what,
	}, nil
}

// admit runs the skeleton up to the test: it validates and, on the first
// observation, adopts sys, then pushes sys into the windows. test reports
// whether the policy's statistic must now decide; when it is false,
// changed and err are the observation's result.
func (w *windowed) admit(sys coord.Coordinate) (test, changed bool, err error) {
	first, err := w.prime(sys)
	if err != nil {
		return false, false, err
	}
	if err := w.pair.Append(sys.Vec); err != nil {
		//nc:allow(hotpath) dimension-mismatch return: cold by definition
		return false, false, fmt.Errorf("%s policy: %w", w.what, err)
	}
	w.heights[w.slot] = sys.Height
	if w.slot++; w.slot == len(w.heights) {
		w.slot = 0
	}
	return !first && w.pair.Full(), first, nil
}

// settle finishes the skeleton on the policy's verdict: a change point
// publishes C(Wc) — the pair's current centroid and the mean of the
// matching heights, both summed oldest first — and restarts both windows.
func (w *windowed) settle(fired bool, err error) (coord.Coordinate, bool, error) {
	if err != nil {
		//nc:allow(hotpath) statistic-failure return: cold by definition
		return w.app, false, fmt.Errorf("%s policy: %w", w.what, err)
	}
	if !fired {
		return w.app, false, nil
	}
	centroid, err := w.pair.CurrentCentroid()
	if err != nil {
		//nc:allow(hotpath) not-full return: cold by definition
		return w.app, false, fmt.Errorf("%s policy: %w", w.what, err)
	}
	copy(w.app.Vec, centroid)
	var h float64
	for i := range w.heights {
		h += w.heights[(w.slot+i)%len(w.heights)]
	}
	w.app.Height = h / float64(len(w.heights))
	w.pair.Reset()
	return w.app, true, nil
}

// Reset implements Policy.
func (w *windowed) Reset() {
	w.reset(w.dim)
	w.pair.Reset()
}

// --- Relative --------------------------------------------------------------

// Relative is the first window-based policy: it fires when the window
// centroid shift, normalized by the distance from the start centroid to
// the nearest known neighbor (window.Pair.Relative), exceeds epsilon; it
// then publishes C(Wc) and restarts both windows. With no known neighbor
// there is no locale to be relative to, and it never fires.
type Relative struct{ windowed }

// NewRelative builds the RELATIVE policy with window size k and threshold
// epsilon.
func NewRelative(dim, k int, epsilon float64) (*Relative, error) {
	w, err := newWindowed(dim, k, epsilon, "relative")
	if err != nil {
		return nil, err
	}
	return &Relative{w}, nil
}

// Observe implements Policy.
func (r *Relative) Observe(obs Observation) (coord.Coordinate, bool, error) {
	test, changed, err := r.admit(obs.Sys)
	if !test || !obs.HasNeighbor {
		return r.app, changed, err
	}
	ratio, err := r.pair.Relative(obs.Neighbor.Vec)
	// +Inf is movement with the neighbor on C(Ws): significant at any
	// threshold.
	return r.settle(ratio > r.threshold || math.IsInf(ratio, 1), err)
}

// Name implements Policy.
func (*Relative) Name() string { return "relative" }

// --- Energy ---------------------------------------------------------------

// Energy fires when the energy statistic between the start and current
// windows exceeds tau, publishing C(Wc). The paper's deployed
// configuration.
type Energy struct{ windowed }

// NewEnergy builds the ENERGY policy with window size k and threshold
// tau.
func NewEnergy(dim, k int, tau float64) (*Energy, error) {
	w, err := newWindowed(dim, k, tau, "energy")
	if err != nil {
		return nil, err
	}
	return &Energy{w}, nil
}

// Observe implements Policy.
//
//nc:hotpath
func (e *Energy) Observe(obs Observation) (coord.Coordinate, bool, error) {
	test, changed, err := e.admit(obs.Sys)
	if !test {
		return e.app, changed, err
	}
	energy, err := e.pair.Energy()
	return e.settle(energy > e.threshold, err)
}

// Name implements Policy.
func (*Energy) Name() string { return "energy" }

// --- Application/Centroid ----------------------------------------------------

// ApplicationCentroid is the Section V-G hybrid: Application's trigger
// (||c_a - c_s|| > tau) publishing the centroid of the last K system
// coordinates. The paper shows it is more stable than plain Application
// but, lacking a window-based trigger, remains fragile to its threshold.
type ApplicationCentroid struct {
	base
	tau  float64
	ring []coord.Coordinate
	head int
	n    int
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
		base: base{app: coord.Origin(dim), dim: dim},
		tau:  tau,
		ring: make([]coord.Coordinate, k),
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
	a.setRingCentroid()
	return a.app, true, nil
}

// setRingCentroid publishes the centroid of the ring's a.n coordinates,
// summed oldest first (from a.head), without allocating.
func (a *ApplicationCentroid) setRingCentroid() {
	for i := range a.app.Vec {
		a.app.Vec[i] = 0
	}
	var h float64
	k := len(a.ring)
	for i := 0; i < a.n; i++ {
		m := a.ring[(a.head+i)%k]
		for j := range a.app.Vec {
			a.app.Vec[j] += m.Vec[j]
		}
		h += m.Height
	}
	a.app.Vec.ScaleInPlace(1 / float64(a.n))
	a.app.Height = h / float64(a.n)
}

// Name implements Policy.
func (*ApplicationCentroid) Name() string { return "application-centroid" }

// Reset implements Policy.
func (a *ApplicationCentroid) Reset() {
	a.reset(a.dim)
	a.head, a.n = 0, 0
}

// --- Selection ----------------------------------------------------------------

// Choice is one policy a configuration can select: its spelling, its
// paper-default threshold and its constructor. RANKSUM, an extension
// baseline only the extension experiment builds, is not a Choice.
type Choice struct {
	// Flag is the policy's spelling on ncsim's -policy flag.
	Flag string
	// Threshold is the paper's threshold for the policy; 0 for direct,
	// which has none.
	Threshold float64
	build     func(dim, window int, threshold float64) (Policy, error)
}

// New builds the policy for dim-dimensional coordinates. window is read
// by the policies that keep one; a threshold of 0 means c.Threshold.
func (c Choice) New(dim, window int, threshold float64) (Policy, error) {
	if threshold == 0 {
		threshold = c.Threshold
	}
	return c.build(dim, window, threshold)
}

// Choices is the one table of selectable policies, in the order of
// netcoord's PolicyKind values (which count from 1).
var Choices = [...]Choice{
	{"energy", DefaultEnergyTau, func(dim, k int, tau float64) (Policy, error) { return NewEnergy(dim, k, tau) }},
	{"relative", DefaultRelativeEpsilon, func(dim, k int, eps float64) (Policy, error) { return NewRelative(dim, k, eps) }},
	{"system", DefaultThresholdTau, func(dim, _ int, tau float64) (Policy, error) { return NewSystem(dim, tau) }},
	{"application", DefaultThresholdTau, func(dim, _ int, tau float64) (Policy, error) { return NewApplication(dim, tau) }},
	{"centroid", DefaultThresholdTau, func(dim, k int, tau float64) (Policy, error) { return NewApplicationCentroid(dim, k, tau) }},
	{"direct", 0, func(dim, _ int, _ float64) (Policy, error) { return NewDirect(dim) }},
}

// Choose returns the Choice spelled flag.
func Choose(flag string) (Choice, bool) {
	for _, c := range Choices {
		if c.Flag == flag {
			return c, true
		}
	}
	return Choice{}, false
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
