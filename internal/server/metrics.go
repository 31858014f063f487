package server

import (
	"net/http"
	"time"

	"netcoord"
	"netcoord/internal/telemetry"
)

// serverMetrics is the server's instrument set: owned HTTP instruments
// mutated by the middleware, plus func-bridged collectors that pull
// each subsystem's own counters at scrape time (so the hot paths pay
// only what they already paid to keep their stats).
//
// All durations are exported in seconds (observed internally in
// nanoseconds) and every metric carries the netcoord_ prefix.
type serverMetrics struct {
	registry *telemetry.Registry
	inflight *telemetry.Gauge
}

// routeMetrics is one endpoint's HTTP instrument set, created at route
// registration so the per-request path is lookup-free.
type routeMetrics struct {
	// requests indexes counters by status class (requests[2] = 2xx);
	// class 0 counts responses with an unparseable status.
	requests [6]*telemetry.Counter
	latency  *telemetry.Histogram
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
}

// newServerMetrics wires the owned HTTP instruments into a registry of
// their own: every server keeps separate series, so a leader and a
// follower in one process do not mix.
func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	return &serverMetrics{
		registry: reg,
		inflight: reg.Gauge("netcoord_http_inflight_requests",
			"Requests currently being served (long-lived /watch and /changes streams included).", nil),
	}
}

// route builds the per-endpoint instruments for one route label.
func (m *serverMetrics) route(route string) *routeMetrics {
	rm := &routeMetrics{
		latency: m.registry.Histogram("netcoord_http_request_seconds",
			"HTTP request latency by route (includes the held-open time of streaming endpoints).",
			telemetry.Labels{"route": route}, 1e-9),
		bytesIn: m.registry.Counter("netcoord_http_request_bytes_total",
			"Request body bytes received by route (from Content-Length).",
			telemetry.Labels{"route": route}),
		bytesOut: m.registry.Counter("netcoord_http_response_bytes_total",
			"Response body bytes written by route.",
			telemetry.Labels{"route": route}),
	}
	for class := 1; class <= 5; class++ {
		rm.requests[class] = m.registry.Counter("netcoord_http_requests_total",
			"HTTP requests completed by route and status class.",
			telemetry.Labels{"route": route, "class": statusClasses[class]})
	}
	rm.requests[0] = rm.requests[5] // unclassifiable counts as server error
	return rm
}

var statusClasses = [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}

// metricsResponseWriter counts bytes and captures the status code.
type metricsResponseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *metricsResponseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *metricsResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// flushingResponseWriter adds Flusher passthrough; the SSE /watch
// handler type-asserts http.Flusher and must still find it through the
// wrapper.
type flushingResponseWriter struct {
	metricsResponseWriter
	fl http.Flusher
}

func (w *flushingResponseWriter) Flush() { w.fl.Flush() }

// instrument wraps a handler with the route's HTTP metrics: request
// count by status class, latency, inflight, and bytes both ways.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.met.route(route)
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		if req.ContentLength > 0 {
			rm.bytesIn.Add(uint64(req.ContentLength))
		}
		mw := &metricsResponseWriter{ResponseWriter: w}
		wrapped := http.ResponseWriter(mw)
		if fl, ok := w.(http.Flusher); ok {
			fw := &flushingResponseWriter{fl: fl}
			fw.ResponseWriter = w
			wrapped = fw
			mw = &fw.metricsResponseWriter
		}
		defer func() {
			s.met.inflight.Add(-1)
			rm.latency.Observe(time.Since(start).Nanoseconds())
			rm.bytesOut.Add(uint64(mw.bytes))
			class := mw.status / 100
			if class < 1 || class > 5 {
				class = 0
			}
			rm.requests[class].Inc()
		}()
		h(wrapped, req)
	}
}

// registerCollectors bridges every subsystem's stats into the metrics
// registry. Bridged instruments cost nothing until /metrics is
// scraped; the subsystems keep their counters exactly as before.
func (s *Server) registerCollectors() {
	reg := s.met.registry

	reg.GaugeFunc("netcoord_registry_entries",
		"Live entries in the registry.", nil,
		func() float64 { return float64(s.reg.Len()) })
	reg.GaugeFunc("netcoord_uptime_seconds",
		"Seconds since this server was built.", nil,
		func() float64 { return time.Since(s.started).Seconds() })

	// Change stream (the registry's one feed, on a leader and a follower alike).
	cs := func(f func(netcoord.ChangeStreamStats) float64) func() float64 {
		return func() float64 { return f(s.reg.ChangeStreamStats()) }
	}
	reg.GaugeFunc("netcoord_changefeed_seq",
		"Last assigned change-stream sequence number.", nil,
		cs(func(st netcoord.ChangeStreamStats) float64 { return float64(st.Seq) }))
	reg.GaugeFunc("netcoord_changefeed_epoch",
		"Fencing epoch of the stream this process serves (bumped on promotion).", nil,
		cs(func(st netcoord.ChangeStreamStats) float64 { return float64(st.Epoch) }))
	reg.CounterFunc("netcoord_changefeed_rejected_stale_epoch_total",
		"Events refused by this process's feed because they carried a stale fencing epoch.", nil,
		func() uint64 { return s.reg.ChangeStreamStats().RejectedStaleEpoch })
	reg.CounterFunc("netcoord_changefeed_published_total",
		"Change events published by this process (relayed events included on a follower).", nil,
		func() uint64 { return s.reg.ChangeStreamStats().Published })
	reg.GaugeFunc("netcoord_changefeed_subscribers",
		"Live change-stream sinks (taps excluded): one per server, its watch hub's.", nil,
		cs(func(st netcoord.ChangeStreamStats) float64 { return float64(st.Subscribers) }))
	reg.CounterFunc("netcoord_changefeed_overflows_total",
		"Change events a stream sink refused.", nil,
		func() uint64 { return s.reg.ChangeStreamStats().Overflows })
	reg.CounterFunc("netcoord_changefeed_frames_served_total",
		"Change events answered in the binary frame encoding on /changes.", nil,
		func() uint64 { return s.framesServed.Load() })
	reg.GaugeFunc("netcoord_changefeed_ring_events",
		"Catch-up ring occupancy (events currently buffered).", nil,
		cs(func(st netcoord.ChangeStreamStats) float64 { return float64(st.RingLen) }))
	reg.GaugeFunc("netcoord_changefeed_ring_capacity",
		"Catch-up ring capacity.", nil,
		cs(func(st netcoord.ChangeStreamStats) float64 { return float64(st.RingCap) }))
	reg.GaugeFunc("netcoord_changefeed_tombstones",
		"Tombstone ring occupancy (removal records currently remembered).", nil,
		cs(func(st netcoord.ChangeStreamStats) float64 { return float64(st.TombLen) }))
	reg.GaugeFunc("netcoord_changefeed_tombstone_floor",
		"Sequence below which removal knowledge is incomplete.", nil,
		cs(func(st netcoord.ChangeStreamStats) float64 { return float64(st.TombFloor) }))

	// Watch hub.
	hs := func(f func(WatchHubStats) float64) func() float64 {
		return func() float64 { return f(s.hub.Stats()) }
	}
	reg.GaugeFunc("netcoord_watch_watchers",
		"Live /watch subscribers registered with the hub.", nil,
		hs(func(st WatchHubStats) float64 { return float64(st.Watchers) }))
	reg.CounterFunc("netcoord_watch_events_total",
		"Stream events routed by the watch hub.", nil,
		func() uint64 { return s.hub.events.Load() })
	reg.CounterFunc("netcoord_watch_damages_total",
		"Watcher damage notifications routed by the hub (the fan-out actually paid).", nil,
		func() uint64 { return s.hub.damages.Load() })
	reg.CounterFunc("netcoord_watch_resyncs_total",
		"Conservative damage-everyone rounds after the ring overwrote the hub's position or the stream restarted.", nil,
		func() uint64 { return s.hub.resyncs.Load() })
	reg.CounterFunc("netcoord_watch_subscription_dropped_total",
		"Events the hub never routed because the ring overwrote them first.", nil,
		func() uint64 { return s.hub.dropped.Load() })
	reg.SummaryFunc("netcoord_watch_recompute_seconds",
		"Watcher recompute latency (query plus interest install).", nil, 1e-9,
		func() telemetry.Summary { return s.hub.recomputeLat.Summary() })
	reg.SummaryFunc("netcoord_watch_deliver_lag_seconds",
		"Publish-to-deliver propagation lag: origin publish stamp to the watcher recompute that absorbed the event.", nil, 1e-9,
		func() telemetry.Summary { return s.hub.deliverLag.Summary() })

	if s.follower != nil {
		f := s.follower
		reg.GaugeFunc("netcoord_follower_applied_seq",
			"Last leader sequence applied locally.", nil,
			func() float64 { return float64(f.AppliedSeq()) })
		reg.GaugeFunc("netcoord_follower_lag_events",
			"Known outstanding events behind the leader (leader seq minus applied seq).", nil,
			func() float64 { return float64(f.FollowerStats().Lag) })
		reg.CounterFunc("netcoord_follower_events_applied_total",
			"Stream events applied since start.", nil,
			func() uint64 { return f.FollowerStats().EventsApplied })
		reg.CounterFunc("netcoord_follower_frames_received_total",
			"Change frames decoded from upstream /changes batches, applied or not (replication speaks only frames).", nil,
			func() uint64 { return f.FollowerStats().FramesReceived })
		reg.CounterFunc("netcoord_follower_bootstraps_total",
			"Snapshot bootstraps (initial plus one per stream truncation).", nil,
			func() uint64 { return f.FollowerStats().Bootstraps })
		reg.CounterFunc("netcoord_follower_delta_bootstraps_total",
			"Bootstraps served as delta transfers.", nil,
			func() uint64 { return f.FollowerStats().DeltaBootstraps })
		reg.CounterFunc("netcoord_follower_errors_total",
			"Failed leader calls.", nil,
			func() uint64 { return f.FollowerStats().Errors })
		reg.CounterFunc("netcoord_follower_failovers_total",
			"Rotations to the next configured upstream.", nil,
			func() uint64 { return f.FollowerStats().Failovers })
		reg.CounterFunc("netcoord_follower_reconnects_total",
			"Successful resumptions after one or more upstream errors.", nil,
			func() uint64 { return f.FollowerStats().Reconnects })
		reg.CounterFunc("netcoord_follower_rejected_stale_epoch_total",
			"Upstream responses and events refused for carrying a stale fencing epoch.", nil,
			func() uint64 { return f.FollowerStats().RejectedStaleEpoch })
		reg.GaugeFunc("netcoord_follower_promoted",
			"1 once this replica has been promoted to leader.", nil,
			func() float64 {
				if f.Promoted() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("netcoord_follower_last_bootstrap_seconds",
			"Duration of the most recent snapshot bootstrap.", nil,
			func() float64 { return f.FollowerStats().LastBootstrapSeconds })
		reg.SummaryFunc("netcoord_follower_apply_lag_seconds",
			"Publish-to-apply propagation lag: origin publish stamp to local apply, for every stamped event.", nil, 1e-9,
			func() telemetry.Summary { return f.FollowerStats().ApplyLagNs })
	}

	if s.persist != nil {
		p := s.persist
		reg.CounterFunc("netcoord_persist_wal_records_total",
			"Records durably committed to the WAL since open.", nil,
			func() uint64 { return p.PersistStats().WALRecords })
		reg.GaugeFunc("netcoord_persist_wal_bytes",
			"Active WAL generation's size on disk (resets at compaction).", nil,
			func() float64 { return float64(p.PersistStats().WALBytes) })
		reg.CounterFunc("netcoord_persist_flushes_total",
			"Group commits performed.", nil,
			func() uint64 { return p.PersistStats().Flushes })
		reg.CounterFunc("netcoord_persist_syncs_total",
			"WAL fsyncs issued.", nil,
			func() uint64 { return p.PersistStats().Syncs })
		reg.CounterFunc("netcoord_persist_compactions_total",
			"Completed snapshot compactions.", nil,
			func() uint64 { return p.PersistStats().Compactions })
		reg.CounterFunc("netcoord_persist_compact_failures_total",
			"Compaction attempts that failed.", nil,
			func() uint64 { return p.PersistStats().CompactFailures })
		reg.CounterFunc("netcoord_persist_dropped_records_total",
			"Records discarded because the store had failed or closed.", nil,
			func() uint64 { return p.PersistStats().Dropped })
		reg.GaugeFunc("netcoord_persist_degraded",
			"1 when the store has a sticky I/O error and mutations are no longer logged.", nil,
			func() float64 {
				if p.Err() != nil {
					return 1
				}
				return 0
			})
		reg.SummaryFunc("netcoord_persist_fsync_seconds",
			"WAL fsync latency — the durability window's real-world floor.", nil, 1e-9,
			func() telemetry.Summary { return p.PersistStats().FsyncNs })
		reg.SummaryFunc("netcoord_persist_compaction_seconds",
			"Snapshot compaction duration.", nil, 1e-9,
			func() telemetry.Summary { return p.PersistStats().CompactionNs })
	}
}

// handleHealthz is the readiness probe. A leader (or standalone
// server) is ready while its WAL flusher is healthy: a sticky persist
// error means mutations are silently non-durable, and a load balancer
// should stop routing writers here. A follower is ready while it is
// bootstrapped and its replication lag stays under the configured
// bound — past it the replica serves reads staler than the operator
// tolerates and should be drained until it catches up.
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if s.replica() {
		st := s.follower.FollowerStats()
		body := map[string]any{
			"role":        "follower",
			"applied_seq": st.AppliedSeq,
			"leader_seq":  st.LeaderSeq,
			"lag":         st.Lag,
			"max_lag":     s.maxLag,
			"epoch":       st.Epoch,
		}
		switch {
		case st.Bootstraps == 0:
			body["status"] = "bootstrapping"
			writeJSON(w, http.StatusServiceUnavailable, body)
		case st.Lag > s.maxLag:
			body["status"] = "lagging"
			writeJSON(w, http.StatusServiceUnavailable, body)
		default:
			body["status"] = "ok"
			writeJSON(w, http.StatusOK, body)
		}
		return
	}
	body := map[string]any{"role": "leader", "status": "ok", "epoch": s.reg.ChangeEpoch()}
	if s.follower != nil {
		// A promoted follower reports as leader, flagged so an operator
		// can tell a born leader from a failover survivor.
		body["promoted"] = true
	}
	if s.persist != nil {
		if err := s.persist.Err(); err != nil {
			body["status"] = "degraded"
			body["error"] = err.Error()
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, body)
}
