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
// atomic counters are exposed without double-counting work.
package telemetry

import (
	"fmt"
	"sort"
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
// Registering a name with a conflicting instrument kind panics —
// that is a programming error, not an operational condition.
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

// register is the error-returning core every Register*/convenience
// constructor funnels through. Caller does not hold r.mu.
func (r *Registry) register(name, help string, k kind, s *series, replace bool) (*series, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.familyFor(name, help, k)
	if err != nil {
		return nil, err
	}
	return f.add(s, replace)
}

// RegisterCounter registers (or finds) the counter under name + labels,
// reporting a *RegistrationError instead of panicking on invalid input.
func (r *Registry) RegisterCounter(name, help string, labels Labels) (*Counter, error) {
	s, err := r.register(name, help, kindCounter, &series{labels: labels, counter: &Counter{}}, false)
	if err != nil {
		return nil, err
	}
	return s.counter, nil
}

// RegisterGauge registers (or finds) the gauge under name + labels.
func (r *Registry) RegisterGauge(name, help string, labels Labels) (*Gauge, error) {
	s, err := r.register(name, help, kindGauge, &series{labels: labels, gauge: &Gauge{}}, false)
	if err != nil {
		return nil, err
	}
	return s.gauge, nil
}

// RegisterHistogram registers (or finds) the histogram under name +
// labels, scaled by scale at exposition time.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, scale float64) (*Histogram, error) {
	s, err := r.register(name, help, kindSummary, &series{labels: labels, hist: newHistogram(scale)}, false)
	if err != nil {
		return nil, err
	}
	return s.hist, nil
}

// Counter returns the counter registered under name + labels, creating
// it on first use. It is MustRegister(RegisterCounter(...)): invalid
// names panic with a typed *RegistrationError.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return MustRegister(r.RegisterCounter(name, help, labels))
}

// Gauge returns the gauge registered under name + labels, creating it
// on first use. Panics with *RegistrationError on invalid input.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return MustRegister(r.RegisterGauge(name, help, labels))
}

// Histogram returns the histogram registered under name + labels,
// creating it on first use. It renders as a Prometheus summary
// (quantiles computed from the log buckets at scrape time) with the
// value scaled by scale — pass 1e-9 for a nanosecond-observed
// histogram exported in seconds. Panics with *RegistrationError on
// invalid input.
func (r *Registry) Histogram(name, help string, labels Labels, scale float64) *Histogram {
	return MustRegister(r.RegisterHistogram(name, help, labels, scale))
}

// RegisterCounterFunc registers a counter whose value is pulled from fn
// at scrape time — the bridge for subsystems that already keep their
// own atomic counters.
func (r *Registry) RegisterCounterFunc(name, help string, labels Labels, fn func() uint64) error {
	_, err := r.register(name, help, kindCounter, &series{labels: labels, countFn: fn}, true)
	return err
}

// RegisterGaugeFunc registers a gauge whose value is pulled from fn at
// scrape time.
func (r *Registry) RegisterGaugeFunc(name, help string, labels Labels, fn func() float64) error {
	_, err := r.register(name, help, kindGauge, &series{labels: labels, gaugeFn: fn}, true)
	return err
}

// RegisterSummaryFunc registers a summary whose snapshot is pulled from
// fn at scrape time. scale converts raw units to exposition units
// (1e-9 for nanosecond summaries exported as seconds; 0 means 1).
func (r *Registry) RegisterSummaryFunc(name, help string, labels Labels, scale float64, fn func() Summary) error {
	if scale == 0 {
		scale = 1
	}
	_, err := r.register(name, help, kindSummary, &series{labels: labels, summaryFn: fn, sumScale: scale}, true)
	return err
}

// CounterFunc is MustRegister-style RegisterCounterFunc: panics with a
// typed *RegistrationError on invalid input.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	if err := r.RegisterCounterFunc(name, help, labels, fn); err != nil {
		panic(err)
	}
}

// GaugeFunc is MustRegister-style RegisterGaugeFunc.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if err := r.RegisterGaugeFunc(name, help, labels, fn); err != nil {
		panic(err)
	}
}

// SummaryFunc is MustRegister-style RegisterSummaryFunc — the bridge
// for histograms owned by another package that exposes only a Summary
// through its stats struct.
func (r *Registry) SummaryFunc(name, help string, labels Labels, scale float64, fn func() Summary) {
	if err := r.RegisterSummaryFunc(name, help, labels, scale, fn); err != nil {
		panic(err)
	}
}

// labelKey builds a canonical, order-independent key for a label set.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	key := ""
	for _, k := range names {
		key += k + "\x00" + labels[k] + "\x00"
	}
	return key
}

// validMetricName reports whether name matches the Prometheus metric
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
