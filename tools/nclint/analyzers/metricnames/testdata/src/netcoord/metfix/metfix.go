// Package metfix exercises metric-name validation, the netcoord_
// prefix rule, constant-ness, label hygiene, and cross-registration
// kind conflicts.
package metfix

import "netcoord/internal/telemetry"

func Register(r *telemetry.Registry, suffix string) {
	r.Counter("netcoord_requests_total", "h", nil)
	r.Counter("bad name", "h", nil)    // want `metric name "bad name": .*invalid metric name`
	r.Gauge("queue_depth", "h", nil)   // want `metric name "queue_depth" lacks the netcoord_ namespace prefix`
	r.Counter("netcoord_"+suffix, "h", nil) // want `metric name must be a compile-time constant string`
	r.Counter("netcoord_batches_total", "h", telemetry.Labels{"shard": "0"})
	r.Gauge("netcoord_depth", "h", telemetry.Labels{"bad-label": "x"}) // want `label name "bad-label": .*invalid label name`
	r.Counter("netcoord_allowed$", "h", nil) //nc:allow(metricnames) fixture: proves suppression keeps the site out of the catalog set
}

// Conflict registers one name under two kinds; the second site is the
// finding (whole-program Finalize check).
func Conflict(r *telemetry.Registry) {
	r.Counter("netcoord_mode", "h", nil)
	r.Gauge("netcoord_mode", "h", nil) // want `metric netcoord_mode registered as gauge here but as counter at`
}
