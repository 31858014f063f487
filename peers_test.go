package netcoord

import (
	"math"
	"testing"
)

// observedClient builds a client that has observed three peers at
// distinct latencies.
func observedClient(t *testing.T) *Client {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 21
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	peers := map[string]float64{"near": 15, "mid": 80, "far": 220}
	// Remote coordinates placed consistently with their latencies.
	coords := map[string]Coordinate{
		"near": c3(15, 0, 0),
		"mid":  c3(80, 0, 0),
		"far":  c3(220, 0, 0),
	}
	for i := 0; i < 120; i++ {
		for id, rtt := range peers {
			if _, err := c.Observe(id, rtt, coords[id], 0.3); err != nil {
				t.Fatalf("Observe %s: %v", id, err)
			}
		}
	}
	return c
}

func TestPeerCoordinateRemembered(t *testing.T) {
	c := observedClient(t)
	got, ok := c.PeerCoordinate("mid")
	if !ok {
		t.Fatal("mid peer not remembered")
	}
	if !got.Equal(c3(80, 0, 0)) {
		t.Fatalf("remembered coordinate %v", got)
	}
	if _, ok := c.PeerCoordinate("stranger"); ok {
		t.Fatal("unknown peer reported as known")
	}
}

func TestEstimateRTTToPeer(t *testing.T) {
	c := observedClient(t)
	for id, want := range map[string]float64{"near": 15, "mid": 80, "far": 220} {
		est, err := c.EstimateRTTToPeer(id)
		if err != nil {
			t.Fatalf("EstimateRTTToPeer(%s): %v", id, err)
		}
		if math.Abs(est-want) > want*0.35+5 {
			t.Fatalf("estimate to %s = %v, want ~%v", id, est, want)
		}
	}
	if _, err := c.EstimateRTTToPeer("stranger"); err == nil {
		t.Fatal("unknown peer estimated")
	}
}

func TestPeersSorted(t *testing.T) {
	c := observedClient(t)
	got := c.Peers()
	want := []string{"far", "mid", "near"}
	if len(got) != len(want) {
		t.Fatalf("Peers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Peers = %v, want %v", got, want)
		}
	}
}

func TestNearestPeers(t *testing.T) {
	c := observedClient(t)
	got, err := c.NearestPeers(2)
	if err != nil {
		t.Fatalf("NearestPeers: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d peers", len(got))
	}
	if got[0].ID != "near" || got[1].ID != "mid" {
		t.Fatalf("order = %s, %s", got[0].ID, got[1].ID)
	}
}

func TestForgetPeerDropsEverything(t *testing.T) {
	c := observedClient(t)
	c.ForgetPeer("mid")
	if _, ok := c.PeerCoordinate("mid"); ok {
		t.Fatal("forgotten peer still remembered")
	}
	if c.Links() != 2 {
		t.Fatalf("Links = %d after forget, want 2", c.Links())
	}
	if len(c.Peers()) != 2 {
		t.Fatalf("Peers = %v", c.Peers())
	}
}

func TestPeerRegistryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxLinks = 2
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	remote := c3(50, 0, 0)
	for _, id := range []string{"a", "b", "c", "d"} {
		if _, err := c.Observe(id, 50, remote, 0.5); err != nil {
			t.Fatalf("Observe %s: %v", id, err)
		}
	}
	if got := len(c.Peers()); got != 2 {
		t.Fatalf("registry grew to %d with MaxLinks=2", got)
	}
	// Known peers keep refreshing even at the bound.
	moved := c3(60, 0, 0)
	if _, err := c.Observe("a", 60, moved, 0.5); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	got, ok := c.PeerCoordinate("a")
	if !ok || !got.Equal(moved) {
		t.Fatalf("bounded registry did not refresh known peer: %v %v", got, ok)
	}
}

func TestPeerCoordinateIsolatedFromCaller(t *testing.T) {
	c := observedClient(t)
	got, ok := c.PeerCoordinate("near")
	if !ok {
		t.Fatal("near missing")
	}
	got.Vec[0] = 9999
	again, _ := c.PeerCoordinate("near")
	if again.Vec[0] == 9999 {
		t.Fatal("PeerCoordinate aliases internal state")
	}
}

// neighborOf reads the client's nearest-neighbor state under its lock,
// copying the coordinate view.
func neighborOf(c *Client) (string, Coordinate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, at, has := c.ep.Neighbor()
	return id, at.Clone(), has
}

// nnForgotten reports whether the client's cached nearest-neighbor
// state is cleared.
func nnForgotten(c *Client) bool {
	id, _, has := neighborOf(c)
	return !has && id == ""
}

func TestForgetPeerClearsNearestNeighbor(t *testing.T) {
	// Regression: forgetting the current nearest neighbor used to leave
	// nnID/nnDist/nnCoord behind, so the RELATIVE policy kept measuring
	// centroid shift against the departed peer's stale coordinate
	// forever (and no farther peer could ever displace its distance).
	c := observedClient(t)
	nn, _, _ := neighborOf(c)
	if nn != "near" {
		t.Fatalf("nearest neighbor = %q, want \"near\"", nn)
	}

	// Forgetting a non-NN peer must leave the cached NN alone.
	c.ForgetPeer("far")
	if nnForgotten(c) {
		t.Fatal("forgetting a non-NN peer cleared the nearest neighbor")
	}

	c.ForgetPeer("near")
	if !nnForgotten(c) {
		t.Fatal("forgetting the nearest neighbor left its cached state behind")
	}

	// The next observed peer is elected NN even though it is farther
	// than the departed one ever was.
	if _, err := c.Observe("mid", 80, c3(80, 0, 0), 0.3); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	nn, _, has := neighborOf(c)
	if !has || nn != "mid" {
		t.Fatalf("after forget, nearest neighbor = %q (has=%v), want \"mid\"", nn, has)
	}
}

func TestForgetLinkClearsNearestNeighbor(t *testing.T) {
	c := observedClient(t)
	c.ForgetLink("near")
	if !nnForgotten(c) {
		t.Fatal("ForgetLink left the departed peer's nearest-neighbor state behind")
	}
}
