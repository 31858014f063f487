package telemetry

import (
	"errors"
	"testing"
)

// registerPanic runs register and returns the *RegistrationError it
// panicked with, failing the test if it did not panic with one.
func registerPanic(t *testing.T, register func()) (re *RegistrationError) {
	t.Helper()
	defer func() {
		v := recover()
		err, ok := v.(error)
		if !ok || !errors.As(err, &re) {
			t.Fatalf("panic value %#v, want a *RegistrationError", v)
		}
	}()
	register()
	return nil
}

func TestRegisterTypedErrors(t *testing.T) {
	r := NewRegistry()
	if re := registerPanic(t, func() { r.Counter("0bad", "", nil) }); !errors.Is(re, ErrInvalidMetricName) {
		t.Fatalf("invalid name: got %v, want ErrInvalidMetricName", re)
	}
	if re := registerPanic(t, func() { r.Counter("netcoord_ok_total", "", Labels{"0bad": "x"}) }); !errors.Is(re, ErrInvalidLabelName) {
		t.Fatalf("invalid label: got %v, want ErrInvalidLabelName", re)
	}
	r.Counter("netcoord_dual", "", nil)
	re := registerPanic(t, func() { r.Gauge("netcoord_dual", "", nil) })
	if !errors.Is(re, ErrKindConflict) || re.Metric != "netcoord_dual" {
		t.Fatalf("kind conflict: got %#v, want ErrKindConflict naming the metric", re)
	}
}

// TestMustRegisterPanicsTyped checks that a constructor given a bad
// name panics with an error value (not a string) wrapping the sentinel.
func TestMustRegisterPanicsTyped(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected panic")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrInvalidMetricName) {
			t.Fatalf("panic value %#v, want error wrapping ErrInvalidMetricName", v)
		}
	}()
	r := NewRegistry()
	r.Counter("not a name", "", nil)
}

func TestValidateMetricName(t *testing.T) {
	for _, ok := range []string{"netcoord_x_total", "a:b", "_hidden"} {
		if err := ValidateMetricName(ok); err != nil {
			t.Errorf("ValidateMetricName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "0lead", "has space", "dash-ed"} {
		if err := ValidateMetricName(bad); !errors.Is(err, ErrInvalidMetricName) {
			t.Errorf("ValidateMetricName(%q) = %v, want ErrInvalidMetricName", bad, err)
		}
	}
	if err := ValidateLabelName("a:b"); !errors.Is(err, ErrInvalidLabelName) {
		t.Errorf("ValidateLabelName(%q) = %v, want ErrInvalidLabelName: labels take no colon", "a:b", err)
	}
}
