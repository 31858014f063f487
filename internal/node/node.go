// Package node runs a live network-coordinate participant: the
// deployable counterpart of the simulator, equivalent to the
// implementation the paper ran on 270 PlanetLab nodes (Section VI).
//
// A Node owns a UDP transport peer, a gossip-grown neighbor set and one
// endpoint.Endpoint keyed by address — the same observation pipeline the
// simulator and netcoord.Client run, so nothing about filtering, Vivaldi
// or the application-update policy is written here. A background sampler
// pings one neighbor at a time in round-robin order on a fixed interval —
// matching the paper's five-second PlanetLab cadence — and hands each
// pong to Endpoint.Observe. Neighbor discovery is by gossip: every
// message carries one neighbor address, and ping sources are learned
// passively.
//
// Lifecycle follows the project's goroutine hygiene rules: Start spawns
// the sampler, Stop cancels and joins it; the transport read loop is
// owned by the embedded peer and joined on Close.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"netcoord/internal/coord"
	"netcoord/internal/endpoint"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/transport"
	"netcoord/internal/vivaldi"
)

// Defaults mirroring the paper's PlanetLab deployment.
const (
	// DefaultSampleInterval is the paper's five-second sampling cadence.
	DefaultSampleInterval = 5 * time.Second
	// DefaultPingTimeout bounds how long a sample may take.
	DefaultPingTimeout = 2 * time.Second
	// DefaultMaxNeighbors bounds the gossip-grown neighbor set.
	DefaultMaxNeighbors = 64
)

// Update is one application-level coordinate change notification.
type Update struct {
	// Coord is the new application-level coordinate.
	Coord coord.Coordinate
	// At is when the change was detected.
	At time.Time
	// Error is the node's Vivaldi error weight at the time of the change,
	// so registry consumers can weight entries by confidence.
	Error float64
}

// Config assembles a node.
type Config struct {
	// ListenAddr is the UDP bind address ("127.0.0.1:0" for ephemeral).
	ListenAddr string
	// Seeds are initial neighbor addresses; at least one is required to
	// join an existing system (a brand-new system's first node may start
	// with none).
	Seeds []string
	// Vivaldi configures the update algorithm.
	Vivaldi vivaldi.Config
	// Filter builds the per-link filter; nil means no filtering, as in
	// filter.NewBank.
	Filter filter.Factory
	// Policy is the application-update policy; nil means Direct, as in
	// endpoint.New.
	Policy heuristic.Policy
	// SampleInterval is the time between pings; 0 means the default.
	SampleInterval time.Duration
	// PingTimeout bounds each ping; 0 means the default.
	PingTimeout time.Duration
	// MaxNeighbors bounds the neighbor set; 0 means the default.
	MaxNeighbors int
	// Updates, if non-nil, receives application-level coordinate
	// changes. The channel should be buffered; when it is full,
	// notifications are dropped rather than blocking the sampler.
	Updates chan<- Update
}

// Node is a running coordinate-system participant.
type Node struct {
	cfg  Config
	peer *transport.Peer

	mu          sync.Mutex
	ep          *endpoint.Endpoint[string]
	neighbors   []string
	neighborSet map[string]bool
	cursor      int
	samples     uint64
	failures    uint64

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Start builds and launches a node.
func Start(cfg Config) (*Node, error) {
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = DefaultSampleInterval
	}
	if cfg.PingTimeout <= 0 {
		cfg.PingTimeout = DefaultPingTimeout
	}
	if cfg.MaxNeighbors <= 0 {
		cfg.MaxNeighbors = DefaultMaxNeighbors
	}
	if cfg.Vivaldi.Dimension == 0 {
		cfg.Vivaldi = vivaldi.DefaultConfig()
	}
	ep, err := endpoint.New[string](cfg.Vivaldi, filter.NewBank[string](cfg.Filter, cfg.MaxNeighbors), cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}

	n := &Node{
		cfg:         cfg,
		ep:          ep,
		neighborSet: make(map[string]bool),
	}
	for _, s := range cfg.Seeds {
		n.addNeighborLocked(s)
	}

	peer, err := transport.Listen(cfg.ListenAddr, n.transportState, n.observeInbound)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	// The transport's read loop is already live and calls back into
	// observeInbound, which reads n.peer under n.mu — publish it under
	// the same lock. addNeighborLocked tolerates the brief nil window.
	n.mu.Lock()
	n.peer = peer
	// Neighbors added before the bind address was known (the seed list,
	// or gossip that raced the publish above) could include ourselves;
	// a node must never sample itself, so purge now that we know who we
	// are.
	n.removeNeighborLocked(peer.Addr())
	n.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.sampleLoop(ctx)
	return n, nil
}

// Stop terminates the sampler and closes the transport.
func (n *Node) Stop() error {
	n.cancel()
	n.wg.Wait()
	if err := n.peer.Close(); err != nil {
		return fmt.Errorf("node stop: %w", err)
	}
	return nil
}

// Addr returns the node's bound UDP address.
func (n *Node) Addr() string { return n.peer.Addr() }

// Coordinate returns the current system-level coordinate.
func (n *Node) Coordinate() coord.Coordinate {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ep.Sys().Clone()
}

// AppCoordinate returns the current application-level coordinate.
func (n *Node) AppCoordinate() coord.Coordinate {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ep.App().Clone()
}

// Confidence returns 1 - w (the paper's Figure 6 quantity).
func (n *Node) Confidence() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return 1 - n.ep.Error()
}

// EstimateRTT predicts the RTT in milliseconds to a remote coordinate.
func (n *Node) EstimateRTT(remote coord.Coordinate) (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ep.Sys().DistanceTo(remote)
}

// Neighbors returns a snapshot of the neighbor set.
func (n *Node) Neighbors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.neighbors))
	copy(out, n.neighbors)
	return out
}

// Samples reports the number of successful latency observations applied.
func (n *Node) Samples() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.samples
}

// Failures reports the number of pings that timed out or failed, plus
// the pongs the observation pipeline refused (a wrong-dimension or
// non-finite remote coordinate, an invalid RTT).
func (n *Node) Failures() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failures
}

// transportState snapshots local state for outgoing messages, attaching
// one gossiped neighbor in round-robin order.
func (n *Node) transportState() transport.State {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := transport.State{
		Coord: n.ep.Sys().Clone(),
		Error: n.ep.Error(),
	}
	if len(n.neighbors) > 0 {
		st.Gossip = n.neighbors[int(n.samples)%len(n.neighbors)]
	}
	return st
}

// observeInbound learns neighbors passively: the sender of any inbound
// ping and any gossiped address join the neighbor set.
func (n *Node) observeInbound(remoteAddr string, msg transport.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.Type == transport.TypePing {
		n.addNeighborLocked(remoteAddr)
	}
	if msg.Gossip != "" {
		n.addNeighborLocked(msg.Gossip)
	}
}

// addNeighborLocked inserts an address if new, respecting the bound.
// Callers hold n.mu.
func (n *Node) addNeighborLocked(addr string) {
	if addr == "" || n.neighborSet[addr] {
		return
	}
	if n.peer != nil && addr == n.peer.Addr() {
		return // never sample ourselves
	}
	if len(n.neighbors) >= n.cfg.MaxNeighbors {
		return
	}
	n.neighborSet[addr] = true
	n.neighbors = append(n.neighbors, addr)
}

// removeNeighborLocked deletes an address from the neighbor set if
// present. Callers hold n.mu.
func (n *Node) removeNeighborLocked(addr string) {
	if !n.neighborSet[addr] {
		return
	}
	delete(n.neighborSet, addr)
	for i, a := range n.neighbors {
		if a == addr {
			n.neighbors = append(n.neighbors[:i], n.neighbors[i+1:]...)
			break
		}
	}
}

// nextNeighborLocked returns the next round-robin target, or "" if the
// neighbor set is empty. Callers hold n.mu.
func (n *Node) nextNeighborLocked() string {
	if len(n.neighbors) == 0 {
		return ""
	}
	addr := n.neighbors[n.cursor%len(n.neighbors)]
	n.cursor++
	return addr
}

// sampleLoop pings one neighbor per interval until cancelled.
func (n *Node) sampleLoop(ctx context.Context) {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.SampleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			// A failed or refused sample is counted in Failures and an
			// empty neighbor set just waits for gossip; neither stops
			// the loop.
			_ = n.SampleNow(ctx)
		}
	}
}

// applyObservation hands one pong to the endpoint. A pong the pipeline
// refuses — a hostile or mismatched peer — counts as a failure and
// changes nothing, its gossip included.
func (n *Node) applyObservation(target string, res transport.PingResult) {
	rttMS := float64(res.RTT) / float64(time.Millisecond)
	if rttMS <= 0 {
		rttMS = 0.01 // clock granularity floor: loopback pings can
		// complete inside one timer tick
	}

	n.mu.Lock()
	obs, err := n.ep.Observe(target, rttMS, res.Coord, res.Error)
	if err != nil {
		n.failures++
		n.mu.Unlock()
		return
	}
	if res.Gossip != "" {
		n.addNeighborLocked(res.Gossip)
	}
	var notify *Update
	if obs.Released {
		n.samples++
		if obs.AppChanged && n.cfg.Updates != nil {
			// App is a view of the policy's internal buffer (valid only
			// until the next Observe); the published update needs its
			// own copy.
			notify = &Update{Coord: n.ep.App().Clone(), At: time.Now(), Error: n.ep.Error()}
		}
	}
	n.mu.Unlock()

	if notify != nil {
		select {
		case n.cfg.Updates <- *notify:
		default:
			// Receiver is slow: drop rather than stall sampling. The
			// whole point of application-level coordinates is that
			// updates are rare, so a full channel means a stuck app.
		}
	}
}

// ErrNoNeighbors is reported by SampleNow when there is nobody to ping.
var ErrNoNeighbors = errors.New("node: no neighbors")

// SampleNow performs one synchronous sample — what the background
// sampler does every interval; call it directly for fast-convergence
// bootstraps and tests.
func (n *Node) SampleNow(ctx context.Context) error {
	n.mu.Lock()
	target := n.nextNeighborLocked()
	n.mu.Unlock()
	if target == "" {
		return ErrNoNeighbors
	}
	res, err := n.peer.Ping(ctx, target, n.cfg.PingTimeout)
	if err != nil {
		n.mu.Lock()
		n.failures++
		n.mu.Unlock()
		return fmt.Errorf("sample %s: %w", target, err)
	}
	n.applyObservation(target, res)
	return nil
}
