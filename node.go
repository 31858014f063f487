package netcoord

import (
	"fmt"
	"time"

	"netcoord/internal/node"
)

// NodeConfig configures a live, self-contained coordinate node: UDP
// application-level pings, gossip neighbor discovery, background
// round-robin sampling — the full stack the paper deployed on PlanetLab.
type NodeConfig struct {
	// ListenAddr is the UDP bind address, e.g. "0.0.0.0:7946" or
	// "127.0.0.1:0" for an ephemeral port.
	ListenAddr string
	// Seeds are addresses of existing participants; empty for the first
	// node of a new system.
	Seeds []string
	// Client tunes the coordinate pipeline; zero value means
	// DefaultConfig.
	Client Config
	// SampleInterval is the ping cadence (0 = the paper's 5 s).
	SampleInterval time.Duration
	// PingTimeout bounds each sample (0 = 2 s).
	PingTimeout time.Duration
	// MaxNeighbors bounds the gossip-grown neighbor set (0 = 64), and
	// with it the node's per-link filter table: Client.MaxLinks is
	// ignored here.
	MaxNeighbors int
	// Updates, if non-nil, receives application-level coordinate change
	// notifications. Use a buffered channel; overflow is dropped.
	Updates chan<- NodeUpdate
}

// NodeUpdate is an application-level coordinate change from a live node.
type NodeUpdate = node.Update

// Node is a running live coordinate participant: internal/node's Node
// itself, which runs the same observation pipeline as Client and the
// simulator behind a UDP transport. Stop it with Stop.
type Node = node.Node

// StartNode launches a live node.
func StartNode(cfg NodeConfig) (*Node, error) {
	ncfg, _, err := nodeConfig(cfg)
	if err != nil {
		return nil, err
	}
	n, err := node.Start(ncfg)
	if err != nil {
		return nil, fmt.Errorf("netcoord: %w", err)
	}
	return n, nil
}

// nodeConfig resolves a NodeConfig into the internal node's
// configuration, also returning the resolved Client tuning. resolve
// fills per-field defaults, so a partially specified Client keeps every
// field the user did set (a Config with only, say, FilterWarmup or Seed
// must not be silently swapped for DefaultConfig). Split from StartNode
// so the resolution is testable without binding a socket.
func nodeConfig(cfg NodeConfig) (node.Config, Config, error) {
	resolved, vcfg, err := resolve(cfg.Client)
	if err != nil {
		return node.Config{}, Config{}, err
	}
	policy, err := buildPolicy(resolved)
	if err != nil {
		return node.Config{}, Config{}, fmt.Errorf("netcoord: %w", err)
	}
	factory, err := buildFilterFactory(resolved)
	if err != nil {
		return node.Config{}, Config{}, fmt.Errorf("netcoord: %w", err)
	}
	return node.Config{
		ListenAddr:     cfg.ListenAddr,
		Seeds:          cfg.Seeds,
		Vivaldi:        vcfg,
		Filter:         factory,
		Policy:         policy,
		SampleInterval: cfg.SampleInterval,
		PingTimeout:    cfg.PingTimeout,
		MaxNeighbors:   cfg.MaxNeighbors,
		Updates:        cfg.Updates,
	}, resolved, nil
}
