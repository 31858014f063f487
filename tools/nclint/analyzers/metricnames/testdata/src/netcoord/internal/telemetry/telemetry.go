// Package telemetry is a fixture stub: the GOPATH layout gives it the
// same import path as the real registry, so metricnames anchors on it
// identically. Only the registration surface the fixtures exercise is
// declared.
package telemetry

type Labels map[string]string

type Registry struct{}

type Counter struct{}
type Gauge struct{}
type Histogram struct{}
type Summary struct{}

func (r *Registry) Counter(name, help string, labels Labels) *Counter     { return nil }
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge         { return nil }
func (r *Registry) Histogram(name, help string, labels Labels, scale float64) *Histogram {
	return nil
}
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {}
