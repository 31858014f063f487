package telemetry

import (
	"errors"
	"fmt"
)

// Registration failures are programming errors — a bad metric name or
// a kind conflict is a bug in the component registering it, not an
// operational condition — so the Registry's constructors (Counter,
// Gauge, ...) panic. The panic value is always a *RegistrationError
// wrapping one of the sentinels below, so a recover-and-inspect
// harness (and the nclint metricnames analyzer's fixtures) can assert
// the precise failure instead of string-matching a message.
var (
	// ErrInvalidMetricName marks a metric name outside the Prometheus
	// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
	ErrInvalidMetricName = errors.New("telemetry: invalid metric name")
	// ErrInvalidLabelName marks a label name outside [a-zA-Z_][a-zA-Z0-9_]*.
	ErrInvalidLabelName = errors.New("telemetry: invalid label name")
	// ErrKindConflict marks a metric name registered under two
	// different instrument kinds.
	ErrKindConflict = errors.New("telemetry: metric kind conflict")
)

// RegistrationError is the typed panic/error value for a failed
// registration. Err is one of the sentinels above; use errors.Is.
type RegistrationError struct {
	Metric string // the offending metric (or its label's) name
	Detail string // human context: label name, conflicting kinds
	Err    error
}

func (e *RegistrationError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%v: %q (%s)", e.Err, e.Metric, e.Detail)
	}
	return fmt.Sprintf("%v: %q", e.Err, e.Metric)
}

func (e *RegistrationError) Unwrap() error { return e.Err }

// ValidateMetricName checks name against the Prometheus metric-name
// charset. This is the single source of truth shared by runtime
// registration and the nclint metricnames analyzer — there is exactly
// one definition of "valid" in the build.
func ValidateMetricName(name string) error {
	if !validName(name, true) {
		return &RegistrationError{Metric: name, Err: ErrInvalidMetricName}
	}
	return nil
}

// ValidateLabelName checks name against the Prometheus label-name
// charset (no colons, unlike metric names).
func ValidateLabelName(name string) error {
	if !validName(name, false) {
		return &RegistrationError{Metric: name, Err: ErrInvalidLabelName}
	}
	return nil
}
