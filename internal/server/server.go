// Package server is ncserve's HTTP serving stack: the query, mutation,
// snapshot, and stream (long-poll + SSE) handlers, extracted from the
// binary so every registry flavor shares one implementation.
//
// The stream surface — /snapshot, /changes, /watch — is written against
// netcoord.ChangeSource, not a concrete registry type. That seam is
// what makes replicas first-class serving tiers: a *FollowerRegistry's
// one feed carries its leader's stream in the leader's own sequence
// space, so a Server wrapped around a follower re-serves all three
// endpoints with sequence numbers (and exact snapshot pairs) identical
// to the leader's, and watcher/tail fan-out distributes across a
// replica tree instead of concentrating on the leader.
//
// Live distribution is one drain per server: a single change-stream
// subscription feeds the WatchHub, whose spatial damage map routes each
// mutation to the watchers it could actually affect and whose broadcast
// channel wakes /changes long-pollers. N watchers cost one subscription
// plus O(damaged) recomputes per mutation, not N relevance checks; idle
// pollers cost nothing per request.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netcoord"
	"netcoord/internal/telemetry"
)

// Config assembles a Server around a registry.
type Config struct {
	// Registry answers queries (Nearest, Estimate, ...) and applies
	// mutations. Every flavor embeds one: pass pr.Registry or
	// follower.Registry for the persistent and replica variants.
	Registry *netcoord.Registry
	// Source serves the stream surface (/snapshot, /changes, /watch).
	// Pass the widest implementation available: the PersistentRegistry
	// (WAL-deep history), the FollowerRegistry (leader sequence space),
	// or the Registry itself.
	Source netcoord.ChangeSource
	// Persist, when the registry is disk-backed, adds recovery/WAL
	// counters to /stats and the persistence-degraded flag to mutation
	// responses.
	Persist *netcoord.PersistentRegistry
	// Follower, in replica mode, disables mutations until it is promoted
	// (403 naming the leader) and adds replication lag to /stats.
	Follower *netcoord.FollowerRegistry
	// MaxBody caps request body sizes in bytes (0 = 1 MiB).
	MaxBody int64
	// Metrics receives every instrument this server registers and backs
	// GET /metrics. nil builds a private registry — tests running a
	// leader and a follower in one process then keep separate series.
	Metrics *telemetry.Registry
	// MaxLag is the follower readiness bound for GET /healthz: a
	// replica lagging more events than this answers 503 so a load
	// balancer drains it until it catches up. 0 = DefaultMaxLag.
	MaxLag uint64
}

// DefaultMaxLag is the /healthz follower lag bound used when
// Config.MaxLag is zero.
const DefaultMaxLag = 4096

// Server wires a Registry and a ChangeSource to the HTTP surface.
// Create with New, serve it (it is an http.Handler), and call Stop
// before shutting the http.Server down — Stop wakes the long-lived
// /watch and /changes handlers, which http.Server.Shutdown alone would
// wait on forever.
type Server struct {
	reg      *netcoord.Registry
	source   netcoord.ChangeSource
	persist  *netcoord.PersistentRegistry
	follower *netcoord.FollowerRegistry
	started  time.Time
	maxBody  int64
	maxLag   uint64
	mux      *http.ServeMux
	met      *serverMetrics

	// framesServed counts change events answered in the binary frame
	// encoding (negotiated per request; JSON pollers don't move it).
	framesServed atomic.Uint64

	// hub is the server's one change-stream subscription: it routes
	// events to /watch handlers and wakes /changes long-pollers.
	hub *WatchHub

	shutdown     chan struct{}
	shutdownOnce sync.Once
}

// New builds the HTTP serving stack. The caller owns the registry's
// lifecycle; Stop only halts the server's goroutines.
func New(cfg Config) *Server {
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	source := cfg.Source
	if source == nil {
		source = cfg.Registry
	}
	maxLag := cfg.MaxLag
	if maxLag == 0 {
		maxLag = DefaultMaxLag
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = telemetry.NewRegistry()
	}
	s := &Server{
		reg:      cfg.Registry,
		source:   source,
		persist:  cfg.Persist,
		follower: cfg.Follower,
		started:  time.Now(),
		maxBody:  maxBody,
		maxLag:   maxLag,
		mux:      http.NewServeMux(),
		met:      newServerMetrics(metrics),
		shutdown: make(chan struct{}),
	}
	s.hub = newWatchHub(source, s.shutdown)
	s.registerCollectors()
	s.mux.HandleFunc("POST /upsert", s.instrument("/upsert", s.leaderOnly(s.handleUpsert)))
	s.mux.HandleFunc("POST /remove", s.instrument("/remove", s.leaderOnly(s.handleRemove)))
	s.mux.HandleFunc("POST /promote", s.instrument("/promote", s.handlePromote))
	s.mux.HandleFunc("GET /nearest", s.instrument("/nearest", s.staleness(s.handleNearestGet)))
	s.mux.HandleFunc("POST /nearest", s.instrument("/nearest", s.staleness(s.handleNearestPost)))
	s.mux.HandleFunc("POST /nearest/batch", s.instrument("/nearest/batch", s.staleness(s.handleNearestBatch)))
	s.mux.HandleFunc("GET /estimate", s.instrument("/estimate", s.staleness(s.handleEstimate)))
	s.mux.HandleFunc("GET /snapshot", s.instrument("/snapshot", s.staleness(s.handleSnapshot)))
	s.mux.HandleFunc("GET /changes", s.instrument("/changes", s.staleness(s.handleChanges)))
	s.mux.HandleFunc("GET /watch", s.instrument("/watch", s.handleWatch))
	s.mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", metrics.Handler())
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) { s.mux.ServeHTTP(w, req) }

// Stop wakes every long-lived handler and halts the hub's goroutine;
// safe to call more than once.
func (s *Server) Stop() { s.shutdownOnce.Do(func() { close(s.shutdown) }) }

// replica reports whether this server fronts a follower that has not
// been promoted — by /promote or by the library's Promote; the follower
// is the one that knows.
func (s *Server) replica() bool { return s.follower != nil && !s.follower.Promoted() }

// leaderOnly rejects mutations on a follower: its registry is a
// read-only replica of the leader's (ErrReadOnlyReplica underneath).
// A promoted follower IS the leader — its writes continue the stream
// under the new fencing epoch — so the gate opens after promotion.
func (s *Server) leaderOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if s.replica() {
			writeError(w, http.StatusForbidden, fmt.Errorf("read-only replica of %s: send mutations to the leader", s.follower.FollowerStats().LeaderURL))
			return
		}
		h(w, req)
	}
}

// staleness stamps follower read responses with how stale they may be:
// X-NC-Staleness is seconds since the upstream last answered, X-NC-Lag
// the events known outstanding. A replica cut off from its upstream
// keeps serving reads — availability degrades gracefully instead of
// cliffing — but every response discloses the bound, so a client that
// needs read-your-writes (it just mutated through the leader) knows to
// pin to the leader or to wait out the advertised staleness instead of
// trusting an arbitrary replica. Promotion ends the stamping: the
// state is authoritative from then on.
func (s *Server) staleness(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if s.replica() {
			st := s.follower.FollowerStats()
			if st.LastContactAgeSeconds >= 0 {
				w.Header().Set("X-NC-Staleness", strconv.FormatFloat(st.LastContactAgeSeconds, 'f', 3, 64))
			}
			w.Header().Set("X-NC-Lag", strconv.FormatUint(st.Lag, 10))
		}
		h(w, req)
	}
}

// defaultK is the k used when a nearest query does not specify one.
const defaultK = 8

// maxK bounds a single query's result size so one request cannot ask
// the service to rank the whole registry.
const maxK = 1024

func parseK(w http.ResponseWriter, raw string) (int, bool) {
	if raw == "" {
		return defaultK, true
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 || k > maxK {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be an integer in [1, %d]", maxK))
		return 0, false
	}
	return k, true
}

// parseVec parses the vec=x,y,z (+ optional height) watch parameters.
func parseVec(raw, height string) (netcoord.Coordinate, error) {
	parts := strings.Split(raw, ",")
	c := netcoord.Coordinate{Vec: make([]float64, len(parts))}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return netcoord.Coordinate{}, fmt.Errorf("bad vec component %q: %w", p, err)
		}
		c.Vec[i] = v
	}
	if height != "" {
		h, err := strconv.ParseFloat(height, 64)
		if err != nil {
			return netcoord.Coordinate{}, fmt.Errorf("bad height: %w", err)
		}
		c.Height = h
	}
	return c, nil
}

// decode reads a bounded JSON body holding one value, rejecting unknown
// fields.
func (s *Server) decode(w http.ResponseWriter, req *http.Request, into any) bool {
	return decodeJSON(w, http.MaxBytesReader(w, req.Body, s.maxBody), into)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errStreamUnavailable is served when a stream endpoint is hit on a
// registry whose change stream is disabled.
var errStreamUnavailable = errors.New("change stream disabled on this registry")
