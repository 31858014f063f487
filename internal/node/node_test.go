package node

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"netcoord/internal/coord"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/transport"
	"netcoord/internal/vivaldi"
)

// startNode launches a node with fast test timings that runs the paper's
// pipeline, MP filter and ENERGY, as every deployment through
// netcoord.StartNode does by default.
func startNode(t *testing.T, seeds []string, mutate func(*Config)) *Node {
	t.Helper()
	mp, err := filter.MPFactory(filter.DefaultMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	energy, err := heuristic.NewEnergy(vivaldi.DefaultConfig().Dimension, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ListenAddr:     "127.0.0.1:0",
		Seeds:          seeds,
		Vivaldi:        vivaldi.DefaultConfig(),
		Filter:         mp,
		Policy:         energy,
		SampleInterval: 20 * time.Millisecond,
		PingTimeout:    500 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if err := n.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return n
}

func TestStartStop(t *testing.T) {
	n := startNode(t, nil, nil)
	if n.Addr() == "" {
		t.Fatal("no bound address")
	}
	c := n.Coordinate()
	if c.Dim() != 3 {
		t.Fatalf("dimension = %d", c.Dim())
	}
}

func TestStartRejectsBadConfig(t *testing.T) {
	bad := vivaldi.DefaultConfig()
	bad.CC = -1
	if _, err := Start(Config{ListenAddr: "127.0.0.1:0", Vivaldi: bad}); err == nil {
		t.Fatal("bad vivaldi config accepted")
	}
	if _, err := Start(Config{ListenAddr: "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func TestSampleNowNoNeighbors(t *testing.T) {
	n := startNode(t, nil, nil)
	if err := n.SampleNow(context.Background()); !errors.Is(err, ErrNoNeighbors) {
		t.Fatalf("error = %v, want ErrNoNeighbors", err)
	}
}

func TestTwoNodesExchangeCoordinates(t *testing.T) {
	a := startNode(t, nil, nil)
	b := startNode(t, []string{a.Addr()}, nil)

	// Drive samples synchronously for determinism.
	for i := 0; i < 50; i++ {
		if err := b.SampleNow(context.Background()); err != nil {
			t.Fatalf("SampleNow: %v", err)
		}
	}
	if b.Samples() == 0 {
		t.Fatal("no samples applied")
	}
	// After samples, b's coordinate must have left the origin (loopback
	// RTT is tiny but positive) and its confidence must have grown.
	if b.Confidence() <= 0 {
		t.Fatalf("confidence = %v, want > 0", b.Confidence())
	}
}

func TestGossipGrowsNeighborSets(t *testing.T) {
	a := startNode(t, nil, nil)
	bCh := startNode(t, []string{a.Addr()}, nil)
	// c knows only a; through gossip it must eventually learn b, and a
	// must learn both ping sources.
	c := startNode(t, []string{a.Addr()}, nil)

	// b and c ping a; a learns both addresses from packet sources.
	for i := 0; i < 5; i++ {
		if err := bCh.SampleNow(context.Background()); err != nil {
			t.Fatalf("b SampleNow: %v", err)
		}
		if err := c.SampleNow(context.Background()); err != nil {
			t.Fatalf("c SampleNow: %v", err)
		}
	}
	aNeighbors := a.Neighbors()
	if len(aNeighbors) < 2 {
		t.Fatalf("a learned %d neighbors, want >= 2 (passive learning)", len(aNeighbors))
	}
	// Now a's pongs gossip its neighbor list; c should learn b.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.SampleNow(context.Background()); err != nil {
			t.Fatalf("c SampleNow: %v", err)
		}
		if len(c.Neighbors()) >= 2 {
			return
		}
	}
	t.Fatalf("c never learned a second neighbor: %v", c.Neighbors())
}

func TestNeighborBoundRespected(t *testing.T) {
	n := startNode(t, []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"}, func(c *Config) {
		c.MaxNeighbors = 2
	})
	if got := len(n.Neighbors()); got != 2 {
		t.Fatalf("neighbors = %d, want bound of 2", got)
	}
}

func TestFailuresCounted(t *testing.T) {
	// Seed with a dead address: reserve a port, then close it.
	dead := startNode(t, nil, nil)
	deadAddr := dead.Addr()
	if err := dead.Stop(); err != nil {
		t.Fatalf("stop dead: %v", err)
	}
	n, err := Start(Config{
		ListenAddr:     "127.0.0.1:0",
		Seeds:          []string{deadAddr},
		Vivaldi:        vivaldi.DefaultConfig(),
		SampleInterval: time.Hour, // no background samples
		PingTimeout:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := n.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	}()
	if err := n.SampleNow(context.Background()); err == nil {
		t.Fatal("sample of dead address succeeded")
	}
	if n.Failures() != 1 {
		t.Fatalf("Failures = %d, want 1", n.Failures())
	}
	// The dead node is stopped twice overall; ensure idempotent cleanup
	// didn't panic (covered by deferred Stop).
	_ = deadAddr
}

func TestAppUpdateNotifications(t *testing.T) {
	updates := make(chan Update, 16)
	a := startNode(t, nil, nil)
	b := startNode(t, []string{a.Addr()}, func(c *Config) {
		c.Updates = updates
	})
	for i := 0; i < 40; i++ {
		if err := b.SampleNow(context.Background()); err != nil {
			t.Fatalf("SampleNow: %v", err)
		}
	}
	select {
	case u := <-updates:
		if !u.Coord.Vec.IsFinite() {
			t.Fatalf("update coordinate invalid: %v", u.Coord)
		}
		if u.At.IsZero() {
			t.Fatal("update missing timestamp")
		}
	default:
		// The first policy observation always fires; with 40 samples we
		// must have at least one update.
		t.Fatal("no application updates received")
	}
}

func TestBackgroundSampling(t *testing.T) {
	a := startNode(t, nil, nil)
	b := startNode(t, []string{a.Addr()}, func(c *Config) {
		c.SampleInterval = 10 * time.Millisecond
	})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if b.Samples() >= 3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("background sampler applied only %d samples", b.Samples())
}

func TestEstimateRTTAgainstPeer(t *testing.T) {
	a := startNode(t, nil, nil)
	b := startNode(t, []string{a.Addr()}, nil)
	for i := 0; i < 30; i++ {
		if err := b.SampleNow(context.Background()); err != nil {
			t.Fatalf("SampleNow: %v", err)
		}
	}
	est, err := b.EstimateRTT(a.Coordinate())
	if err != nil {
		t.Fatalf("EstimateRTT: %v", err)
	}
	if math.IsNaN(est) || est < 0 {
		t.Fatalf("estimate = %v", est)
	}
	// Loopback RTT is well under 50 ms; the estimate must be in a sane
	// range, not flung across the planet.
	if est > 50 {
		t.Fatalf("estimate = %v ms for loopback", est)
	}
}

func TestCustomFilterAndPolicyWiring(t *testing.T) {
	calls := 0
	a := startNode(t, nil, nil)
	b := startNode(t, []string{a.Addr()}, func(c *Config) {
		c.Filter = func() filter.Filter {
			calls++
			return filter.NewNone()
		}
	})
	if err := b.SampleNow(context.Background()); err != nil {
		t.Fatalf("SampleNow: %v", err)
	}
	if calls == 0 {
		t.Fatal("custom filter factory never invoked")
	}
	if b.Samples() != 1 {
		t.Fatalf("Samples = %d, want 1 (None filter passes first observation)", b.Samples())
	}
}

// TestSelfSeedPurged: a deployment handing every node the same seed
// list — including the node's own address — must not leave the node
// sampling itself. The self-address filter cannot fire while seeds are
// added (the socket is not bound yet), so Start purges it afterwards.
func TestSelfSeedPurged(t *testing.T) {
	// Grab a concrete port by binding an ephemeral node first.
	first := startNode(t, nil, nil)
	addr := first.Addr()
	if err := first.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	// Start inline rather than via the helper: losing the just-freed
	// port to another process is an environment hazard, not a failure.
	n, err := Start(Config{
		ListenAddr:     addr,
		Seeds:          []string{addr, "127.0.0.1:19"},
		Vivaldi:        vivaldi.DefaultConfig(),
		SampleInterval: 20 * time.Millisecond,
		PingTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		t.Skipf("port %s was reclaimed by the OS: %v", addr, err)
	}
	t.Cleanup(func() {
		if err := n.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	for _, nb := range n.Neighbors() {
		if nb == addr {
			t.Fatalf("node kept itself (%s) as a neighbor: %v", addr, n.Neighbors())
		}
	}
	if len(n.Neighbors()) != 1 {
		t.Fatalf("neighbors = %v, want only the other seed", n.Neighbors())
	}
}

func TestRefusedObservationCountsAsFailure(t *testing.T) {
	// A pong the pipeline refuses used to vanish: applyObservation
	// returned silently and no counter moved. It is a failure, and it
	// changes nothing — the hostile peer's gossip included.
	n := startNode(t, nil, func(c *Config) { c.SampleInterval = time.Hour })
	good := coord.Origin(3)
	good.Vec[0] = 40
	// Two clean pongs take the link through the MP filter's warm-up, so
	// the node has a non-origin coordinate to lose.
	for i := 0; i < 2; i++ {
		n.applyObservation("10.0.0.1:1", transport.PingResult{RTT: 40 * time.Millisecond, Coord: good, Error: 0.5})
	}
	if n.Samples() != 1 || n.Failures() != 0 {
		t.Fatalf("after clean pongs: samples %d failures %d, want 1 and 0", n.Samples(), n.Failures())
	}
	before := n.Coordinate()

	nan := coord.Origin(3)
	nan.Vec[1] = math.NaN()
	buried := coord.Origin(3)
	buried.Height = -1
	hostile := map[string]coord.Coordinate{
		"wrong dimension": coord.Origin(2),
		"NaN component":   nan,
		"negative height": buried,
	}
	var want uint64
	for name, c := range hostile {
		n.applyObservation("10.0.0.1:1", transport.PingResult{
			RTT: 40 * time.Millisecond, Coord: c, Error: 0.5, Gossip: "10.6.6.6:6",
		})
		want++
		if got := n.Failures(); got != want {
			t.Errorf("%s: Failures = %d, want %d", name, got, want)
		}
		if got := n.Coordinate(); !got.Equal(before) {
			t.Errorf("%s: coordinate moved %v -> %v", name, before, got)
		}
	}
	if n.Samples() != 1 {
		t.Errorf("Samples = %d after refused pongs, want 1", n.Samples())
	}
	if got := n.Neighbors(); len(got) != 0 {
		t.Errorf("refused pong's gossip was learned: %v", got)
	}
}
