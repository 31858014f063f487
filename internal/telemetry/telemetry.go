// Package telemetry is the serving stack's zero-dependency metrics
// core: atomic counters and gauges, log-bucketed streaming histograms
// with cheap percentile readout, and a process registry that exposes
// every registered instrument in the Prometheus text format.
//
// The paper's thesis — coordinate systems must be continuously
// *measured* to stay stable — applies just as hard to the system that
// serves them: a relay tree whose propagation lag nobody can see is a
// relay tree nobody can trust. This package is deliberately tiny so it
// can ride the hottest paths in the repository: Observe and Add are a
// handful of atomic operations, allocation-free, and safe under the
// registry or feed lock (the same discipline the changefeed imposes on
// its taps).
//
// Instruments are created through a Registry (NewRegistry), which
// namespaces them by metric name + label set and renders them at
// scrape time. Two flavors exist for every readout shape: owned
// instruments (Counter, Gauge, Histogram) that hot paths mutate
// directly, and func-bridged instruments (CounterFunc, GaugeFunc,
// SummaryFunc) that pull a value from an existing stats struct only
// when /metrics is scraped — so subsystems that already maintain
// atomic counters are exposed without double-counting work. Each has
// one registration form: the Registry method of that name, which
// panics with a typed *RegistrationError on an invalid name or label
// or a kind conflict (see errors.go).
package telemetry

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use, but instruments should be created through a Registry so they
// are scraped.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Labels is one instrument's label set. Instruments with the same
// metric name but different label values are distinct series grouped
// under one family in the exposition.
type Labels map[string]string

// kind discriminates how a registered series renders.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindSummary
)

// typeName maps a kind to its Prometheus TYPE keyword.
func (k kind) typeName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// series is one registered instrument: a concrete (name, labels) pair
// plus whatever produces its value at scrape time.
type series struct {
	labels    Labels
	labelKey  string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	countFn   func() uint64
	gaugeFn   func() float64
	summaryFn func() Summary
	// sumScale converts a bridged summary's raw units to exposition
	// units (1e-9 for nanosecond summaries exported as seconds).
	sumScale float64
}

// family groups every series sharing one metric name; the exposition
// emits one HELP/TYPE header per family.
type family struct {
	name   string
	help   string
	kind   kind
	order  []string // label keys in registration order
	series map[string]*series
}

// Registry holds instruments and renders them. Create with
// NewRegistry; all methods are safe for concurrent use.
//
// Registration is idempotent for owned instruments: asking twice for
// the same name + label set returns the same instrument, so two
// components may share a process-wide series without coordinating.
// Func-bridged instruments replace their predecessor instead. An
// invalid name or label, or a name registered under a second
// instrument kind, panics with a *RegistrationError — that is a
// programming error, not an operational condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty Registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor finds or creates the family for name, enforcing name
// validity and kind consistency. Caller holds r.mu.
func (r *Registry) familyFor(name, help string, k kind) (*family, error) {
	if err := ValidateMetricName(name); err != nil {
		return nil, err
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f, nil
	}
	if f.kind != k {
		return nil, &RegistrationError{
			Metric: name,
			Detail: fmt.Sprintf("registered as %s and %s", f.kind.typeName(), k.typeName()),
			Err:    ErrKindConflict,
		}
	}
	return f, nil
}

// add installs a series under its family, returning the existing one
// when the exact (name, labels) pair is already registered. Caller
// holds r.mu. replace controls func-bridged re-registration: owned
// instruments dedupe, bridges overwrite (a restarted component's
// closure must not leave a stale one scraping freed state).
func (f *family) add(s *series, replace bool) (*series, error) {
	for l := range s.labels {
		if err := ValidateLabelName(l); err != nil {
			return nil, &RegistrationError{Metric: f.name, Detail: fmt.Sprintf("label %q", l), Err: ErrInvalidLabelName}
		}
	}
	s.labelKey = labelKey(s.labels)
	if old, ok := f.series[s.labelKey]; ok && !replace {
		return old, nil
	} else if !ok {
		f.order = append(f.order, s.labelKey)
	}
	f.series[s.labelKey] = s
	return s, nil
}

// register installs s under name, panicking with the typed
// *RegistrationError on an invalid name or label or a kind conflict.
// Every constructor below funnels through it. Caller does not hold
// r.mu.
func (r *Registry) register(name, help string, k kind, s *series, replace bool) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.familyFor(name, help, k)
	if err == nil {
		s, err = f.add(s, replace)
	}
	if err != nil {
		panic(err)
	}
	return s
}

// Counter returns the counter registered under name + labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.register(name, help, kindCounter, &series{labels: labels, counter: &Counter{}}, false).counter
}

// Gauge returns the gauge registered under name + labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.register(name, help, kindGauge, &series{labels: labels, gauge: &Gauge{}}, false).gauge
}

// Histogram returns the histogram registered under name + labels,
// creating it on first use. It renders as a Prometheus summary
// (quantiles computed from the log buckets at scrape time) with the
// value scaled by scale — pass 1e-9 for a nanosecond-observed
// histogram exported in seconds.
func (r *Registry) Histogram(name, help string, labels Labels, scale float64) *Histogram {
	return r.register(name, help, kindSummary, &series{labels: labels, hist: newHistogram(scale)}, false).hist
}

// CounterFunc registers a counter whose value is pulled from fn at
// scrape time — the bridge for subsystems that already keep their own
// atomic counters.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, help, kindCounter, &series{labels: labels, countFn: fn}, true)
}

// GaugeFunc registers a gauge whose value is pulled from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, kindGauge, &series{labels: labels, gaugeFn: fn}, true)
}

// SummaryFunc registers a summary whose snapshot is pulled from fn at
// scrape time — the bridge for histograms owned by another package
// that exposes only a Summary through its stats struct. scale converts
// raw units to exposition units (1e-9 for nanosecond summaries
// exported as seconds; 0 means 1).
func (r *Registry) SummaryFunc(name, help string, labels Labels, scale float64, fn func() Summary) {
	if scale == 0 {
		scale = 1
	}
	r.register(name, help, kindSummary, &series{labels: labels, summaryFn: fn, sumScale: scale}, true)
}

// labelKey builds a canonical, order-independent key for a label set.
func labelKey(labels Labels) string {
	var key strings.Builder
	for _, k := range slices.Sorted(maps.Keys(labels)) {
		key.WriteString(k + "\x00" + labels[k] + "\x00")
	}
	return key.String()
}

// validName reports whether name matches the Prometheus label-name
// charset [a-zA-Z_][a-zA-Z0-9_]*, or, with colon set, the metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string, colon bool) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (colon && c == ':') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return name != ""
}
