// Package netcoord is a stable, accurate network coordinate library: an
// implementation of Ledlie & Seltzer's "Stable and Accurate Network
// Coordinates" (Harvard TR-17-05 / ICDCS 2006) — Vivaldi hardened for
// live deployment.
//
// Plain Vivaldi embeds hosts into a low-dimensional Euclidean space whose
// distances predict round-trip latency, but it assumes each link has one
// latency. Real links produce observation streams spanning orders of
// magnitude, which destabilize the embedding. This library adds the
// paper's two fixes:
//
//  1. a per-link Moving Percentile filter (keep the last h=4
//     observations, use the p=25th percentile) that strips the heavy
//     tail while tracking genuine latency shifts, and
//  2. a system/application coordinate split: the system coordinate
//     evolves with every sample, while the application-level coordinate
//     updates only when two-window change detection (energy distance or
//     relative centroid displacement) declares a significant change.
//
// # Quick start
//
//	client, err := netcoord.NewClient(netcoord.DefaultConfig())
//	if err != nil { ... }
//	// For every RTT you measure against a peer:
//	state, err := client.Observe("peer-7", rttMillis, peerCoord, peerError)
//	// Estimate latency to any coordinate you have seen:
//	ms, err := client.DistanceTo(otherCoord)
//	// Use state.App for placement decisions; it moves rarely.
//
// Client is a passive state machine fed by your own measurements (use it
// inside any gossip or RPC system, as hashicorp/serf does with its
// coordinate package). StartNode runs the full live stack — UDP pings,
// gossip neighbor discovery, background sampling — when you want a
// self-contained deployment. Simulate replays a synthetic network through
// N nodes. All three run one observation pipeline, internal/endpoint:
// what Observe does to a sample here is, bit for bit, what the live node
// and the paper reproduction do to it.
//
// # Consuming coordinates at scale
//
// Stable coordinates exist so that consumers — server selection,
// operator placement, proximity routing — can act on them. Registry is
// that consumer layer: a concurrency-safe store of node coordinates
// backed by a spatial index, answering exact
// k-nearest-neighbor (Nearest, NearestTo), latency-budget (Within), and
// pairwise (Estimate) queries without scanning the node set. Feed wires
// a live Node's update channel straight into a Registry, and a TTL ages
// out nodes that stop refreshing. cmd/ncserve exposes a Registry over
// HTTP JSON as a deployable proximity service.
//
// OpenPersistentRegistry makes the registry durable: mutations are
// appended to a write-ahead log and compacted into snapshots, so a
// restarted service comes back warm with every coordinate and update
// time intact instead of re-learning the space from scratch.
//
// For one-shot selections over a slice you already hold, Nearest and
// MinimaxPlacement remain the lightweight entry points.
package netcoord

import (
	"fmt"
	"sync"

	"netcoord/internal/coord"
	"netcoord/internal/endpoint"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/vivaldi"
)

// Coordinate is a position in the latency space; distances between
// coordinates estimate round-trip times in milliseconds.
type Coordinate = coord.Coordinate

// Origin returns the zero coordinate of the given dimension.
func Origin(dim int) Coordinate { return coord.Origin(dim) }

// PolicyKind selects the application-update heuristic.
type PolicyKind int

// The application-update policies from the paper's Section V, plus the
// raw pass-through.
const (
	// PolicyEnergy is the paper's deployed configuration: two-window
	// change detection with the energy statistic. The default.
	PolicyEnergy PolicyKind = iota + 1
	// PolicyRelative uses the centroid shift relative to the nearest
	// neighbor.
	PolicyRelative
	// PolicySystem updates on large single-step system movement.
	PolicySystem
	// PolicyApplication updates when the app coordinate drifts from the
	// system coordinate.
	PolicyApplication
	// PolicyApplicationCentroid is PolicyApplication publishing a recent
	// centroid.
	PolicyApplicationCentroid
	// PolicyDirect disables suppression: the application coordinate
	// follows every system update.
	PolicyDirect
)

// Config assembles a Client.
type Config struct {
	// Dimension of the coordinate space; the paper evaluates 3.
	Dimension int
	// CC and CE are the Vivaldi tuning constants (paper: 0.25 each).
	CC float64
	CE float64
	// ErrorMargin enables confidence building (Section IV-B) when > 0:
	// measured and estimated latencies within the margin are treated as
	// equal. Useful on low-latency clusters; keep 0 for the wide area.
	ErrorMargin float64
	// UseHeight enables the Dabek height model (off in the paper).
	UseHeight bool
	// HeightMin floors the height component when UseHeight is set.
	HeightMin float64

	// DisableFilter bypasses the MP filter (the paper's "No Filter"
	// baseline). Strongly discouraged outside experiments.
	DisableFilter bool
	// FilterHistory and FilterPercentile tune the MP filter; zero values
	// mean the paper's h=4, p=25.
	FilterHistory    int
	FilterPercentile float64
	// FilterWarmup is the number of observations a link needs before the
	// filter reports (Section VI robustness fix); 0 means 2.
	FilterWarmup int

	// Policy selects the application-update heuristic; zero value means
	// PolicyEnergy.
	Policy PolicyKind
	// WindowSize is the change-detection window (0 = paper's 32).
	WindowSize int
	// Threshold is the policy threshold: tau for energy/system/
	// application variants, epsilon for relative. 0 means the paper's
	// value for the chosen policy (8 for energy, 0.3 for relative, 16
	// for the windowless heuristics).
	Threshold float64

	// MaxLinks bounds a Client's per-link filter state; 0 means
	// unbounded. StartNode ignores it: a live node bounds its filter
	// table by NodeConfig.MaxNeighbors.
	MaxLinks int
	// Seed drives the deterministic randomness (coordinate bootstrap).
	Seed uint64
}

// DefaultConfig returns the paper's recommended deployment parameters:
// 3 dimensions, cc = ce = 0.25, MP(4, 25) filtering with a two-sample
// warm-up, and the ENERGY policy with window 32 and tau 8.
func DefaultConfig() Config {
	return Config{
		Dimension:        coord.DefaultDimension,
		CC:               vivaldi.DefaultCC,
		CE:               vivaldi.DefaultCE,
		FilterHistory:    filter.DefaultHistory,
		FilterPercentile: filter.DefaultPercentile,
		FilterWarmup:     filter.DefaultUpdateAfter,
		Policy:           PolicyEnergy,
		WindowSize:       heuristic.DefaultWindow,
		Threshold:        heuristic.DefaultEnergyTau,
	}
}

// State is a snapshot of the client's coordinates after an observation.
type State struct {
	// Sys is the system-level coordinate: continuously evolving, for
	// subsystems that want every refinement.
	Sys Coordinate
	// App is the application-level coordinate: stable, updated only on
	// significant change.
	App Coordinate
	// AppChanged reports whether App changed with this observation.
	AppChanged bool
	// Error is the node's Vivaldi error weight w in (0, 1]; confidence
	// is 1 - Error.
	Error float64
}

// Client is a thread-safe network coordinate endpoint. Feed it RTT
// observations of remote nodes (with the remote's coordinate and error
// weight, which Vivaldi protocols exchange on every message) and read
// back coordinates and latency estimates.
type Client struct {
	mu    sync.Mutex
	cfg   Config
	ep    *endpoint.Endpoint[string]
	peers map[string]peerState
}

// NewClient builds a Client.
func NewClient(cfg Config) (*Client, error) {
	resolved, vcfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	policy, err := buildPolicy(resolved)
	if err != nil {
		return nil, fmt.Errorf("netcoord: %w", err)
	}
	factory, err := buildFilterFactory(resolved)
	if err != nil {
		return nil, fmt.Errorf("netcoord: %w", err)
	}
	ep, err := endpoint.New[string](vcfg, filter.NewBank[string](factory, resolved.MaxLinks), policy)
	if err != nil {
		return nil, fmt.Errorf("netcoord: %w", err)
	}
	return &Client{cfg: resolved, ep: ep, peers: make(map[string]peerState)}, nil
}

// resolve fills zero-valued fields with paper defaults and derives the
// Vivaldi configuration.
func resolve(cfg Config) (Config, vivaldi.Config, error) {
	if cfg.Dimension == 0 {
		cfg.Dimension = coord.DefaultDimension
	}
	if cfg.CC == 0 {
		cfg.CC = vivaldi.DefaultCC
	}
	if cfg.CE == 0 {
		cfg.CE = vivaldi.DefaultCE
	}
	if cfg.FilterHistory == 0 {
		cfg.FilterHistory = filter.DefaultHistory
	}
	if cfg.FilterPercentile == 0 {
		cfg.FilterPercentile = filter.DefaultPercentile
	}
	if cfg.FilterWarmup == 0 {
		cfg.FilterWarmup = filter.DefaultUpdateAfter
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyEnergy
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = heuristic.DefaultWindow
	}
	if cfg.Threshold == 0 {
		choice, ok := cfg.Policy.choice()
		if !ok {
			return Config{}, vivaldi.Config{}, fmt.Errorf("netcoord: unknown policy %d", cfg.Policy)
		}
		cfg.Threshold = choice.Threshold
	}
	vcfg := vivaldi.Config{
		Dimension:    cfg.Dimension,
		CC:           cfg.CC,
		CE:           cfg.CE,
		InitialError: vivaldi.DefaultInitialError,
		ErrorMargin:  cfg.ErrorMargin,
		UseHeight:    cfg.UseHeight,
		HeightMin:    cfg.HeightMin,
		Seed:         cfg.Seed,
	}
	return cfg, vcfg, nil
}

func buildPolicy(cfg Config) (heuristic.Policy, error) {
	choice, ok := cfg.Policy.choice()
	if !ok {
		return nil, fmt.Errorf("unknown policy %d", cfg.Policy)
	}
	return choice.New(cfg.Dimension, cfg.WindowSize, cfg.Threshold)
}

// choice returns k's row of heuristic.Choices, the one policy table.
func (k PolicyKind) choice() (heuristic.Choice, bool) {
	if k < PolicyEnergy || k > PolicyDirect {
		return heuristic.Choice{}, false
	}
	return heuristic.Choices[k-PolicyEnergy], true
}

func buildFilterFactory(cfg Config) (filter.Factory, error) {
	if cfg.DisableFilter {
		return func() filter.Filter { return filter.NewNone() }, nil
	}
	return filter.MPFactory(filter.MPConfig{
		History:     cfg.FilterHistory,
		Percentile:  cfg.FilterPercentile,
		UpdateAfter: cfg.FilterWarmup,
	})
}

// Observe feeds one RTT measurement (milliseconds) of the remote node
// identified by id, along with the remote's coordinate and error weight
// as carried by your protocol, through the observation pipeline
// (internal/endpoint) and returns the updated coordinate state.
//
// Measurements from the network are never trusted blindly: an RTT that is
// NaN, infinite or <= 0, and a remote coordinate of the wrong dimension
// or with a non-finite component, are rejected with an error and leave
// every piece of local state untouched. remote is copied where it is
// kept; the caller may reuse its buffer.
//
// Observing a peer seen before allocates only the returned State's Sys
// and App copies, which belong to the caller.
func (c *Client) Observe(id string, rttMillis float64, remote Coordinate, remoteError float64) (State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.ep.Observe(id, rttMillis, remote, remoteError)
	if err != nil {
		return c.stateLocked(false), fmt.Errorf("netcoord: observe %q: %w", id, err)
	}
	c.rememberPeer(id, remote, remoteError)
	return c.stateLocked(res.AppChanged), nil
}

func (c *Client) stateLocked(changed bool) State {
	return State{
		Sys:        c.ep.Sys().Clone(),
		App:        c.ep.App().Clone(),
		AppChanged: changed,
		Error:      c.ep.Error(),
	}
}

// Coordinate returns the current system-level coordinate.
func (c *Client) Coordinate() Coordinate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep.Sys().Clone()
}

// AppCoordinate returns the current application-level coordinate.
func (c *Client) AppCoordinate() Coordinate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep.App().Clone()
}

// Error returns the Vivaldi error weight w (low = confident).
func (c *Client) Error() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep.Error()
}

// Confidence returns 1 - Error, the paper's Figure 6 quantity.
func (c *Client) Confidence() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 1 - c.ep.Error()
}

// DistanceTo estimates the RTT in milliseconds from this node to a
// remote coordinate, using the system-level coordinate.
func (c *Client) DistanceTo(remote Coordinate) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, err := c.ep.Sys().DistanceTo(remote)
	if err != nil {
		return 0, fmt.Errorf("netcoord: %w", err)
	}
	return d, nil
}

// AppDistanceTo estimates the RTT between this node's application-level
// coordinate and a remote application-level coordinate — the estimate a
// placement layer should use, since both ends move rarely.
func (c *Client) AppDistanceTo(remoteApp Coordinate) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, err := c.ep.App().DistanceTo(remoteApp)
	if err != nil {
		return 0, fmt.Errorf("netcoord: %w", err)
	}
	return d, nil
}

// ForgetLink drops per-link filter state for a departed peer, and its
// nearest-neighbor status if it held it.
func (c *Client) ForgetLink(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ep.Forget(id)
}

// Links reports how many peers hold filter state.
func (c *Client) Links() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep.Links()
}
