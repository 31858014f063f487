package netcoord

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"netcoord/internal/heuristic"
	"netcoord/internal/vivaldi"
	"netcoord/internal/xrand"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Dimension != 3 || cfg.CC != 0.25 || cfg.CE != 0.25 {
		t.Fatalf("vivaldi defaults wrong: %+v", cfg)
	}
	if cfg.FilterHistory != 4 || cfg.FilterPercentile != 25 {
		t.Fatalf("filter defaults wrong: %+v", cfg)
	}
	if cfg.Policy != PolicyEnergy || cfg.WindowSize != 32 || cfg.Threshold != 8 {
		t.Fatalf("policy defaults wrong: %+v", cfg)
	}
}

func TestNewClientPolicyVariants(t *testing.T) {
	kinds := []PolicyKind{
		PolicyEnergy, PolicyRelative, PolicySystem,
		PolicyApplication, PolicyApplicationCentroid, PolicyDirect,
	}
	for _, k := range kinds {
		cfg := DefaultConfig()
		cfg.Policy = k
		cfg.Threshold = 0 // force per-policy default resolution
		if _, err := NewClient(cfg); err != nil {
			t.Errorf("policy %d: %v", k, err)
		}
	}
	bad := DefaultConfig()
	bad.Policy = PolicyKind(99)
	if _, err := NewClient(bad); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestPolicyKindsIndexTheTable: heuristic.Choices is indexed by
// PolicyKind, so each kind must build its own policy.
func TestPolicyKindsIndexTheTable(t *testing.T) {
	for kind, name := range map[PolicyKind]string{
		PolicyEnergy:              "energy",
		PolicyRelative:            "relative",
		PolicySystem:              "system",
		PolicyApplication:         "application",
		PolicyApplicationCentroid: "application-centroid",
		PolicyDirect:              "direct",
	} {
		cfg, _, err := resolve(Config{Policy: kind})
		if err != nil {
			t.Fatalf("policy %d: %v", kind, err)
		}
		p, err := buildPolicy(cfg)
		if err != nil {
			t.Fatalf("policy %d: %v", kind, err)
		}
		if p.Name() != name {
			t.Errorf("policy %d builds %q, want %q", kind, p.Name(), name)
		}
	}
	if len(heuristic.Choices) != int(PolicyDirect) {
		t.Fatalf("%d policy kinds, %d table rows", PolicyDirect, len(heuristic.Choices))
	}
	if _, err := buildPolicy(Config{Policy: PolicyDirect + 1, Dimension: 3}); err == nil {
		t.Fatal("policy past the table accepted")
	}
}

func TestNewClientRejectsBadFilter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FilterPercentile = 200
	if _, err := NewClient(cfg); err == nil {
		t.Fatal("bad percentile accepted")
	}
	// NaN passes `p < 0 || p > 100`: the client used to build, and its
	// second Observe indexed the filter window with int(NaN).
	if _, err := NewClient(Config{FilterPercentile: math.NaN(), FilterHistory: 4}); err == nil {
		t.Fatal("NaN percentile accepted")
	}
	if _, err := NewClient(Config{Threshold: math.NaN()}); err == nil {
		t.Fatal("NaN threshold accepted")
	}
}

func TestObserveRejectsBadRemote(t *testing.T) {
	c, err := NewClient(DefaultConfig())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := c.Observe("x", 50, Origin(2), 0.5); err == nil {
		t.Fatal("wrong-dimension remote accepted")
	}
	nan := Origin(3)
	nan.Vec[0] = math.NaN()
	if _, err := c.Observe("x", 50, nan, 0.5); err == nil {
		t.Fatal("NaN remote accepted")
	}
}

func TestObserveCopiesNeighborCoordinate(t *testing.T) {
	// Regression: Observe kept the caller's remote.Vec as the nearest
	// neighbor's coordinate, so a caller decoding every pong into one
	// buffer silently rewrote the RELATIVE policy's reference point.
	cfg := DefaultConfig()
	cfg.Policy = PolicyRelative
	cfg.Threshold = 0
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	buf := c3(15, 0, 0)
	for i := 0; i < 3; i++ {
		if _, err := c.Observe("near", 15, buf, 0.3); err != nil {
			t.Fatalf("Observe near: %v", err)
		}
	}
	buf.Vec[0], buf.Vec[1] = 500, 500
	for i := 0; i < 3; i++ {
		if _, err := c.Observe("far", 700, buf, 0.3); err != nil {
			t.Fatalf("Observe far: %v", err)
		}
	}
	id, at, has := neighborOf(c)
	if !has || id != "near" || !at.Equal(c3(15, 0, 0)) {
		t.Fatalf("nearest neighbor = %q at %v (has=%v), want \"near\" at [15 0 0]", id, at, has)
	}
}

func TestObserveRejectsBadRTT(t *testing.T) {
	// Regression: the filter bank saw a sample before Vivaldi validated
	// it. A NaN returned a nil error, sat in the MP ring and failed the
	// next valid observations; a -5 was accepted and dragged the
	// filtered value down.
	remote := c3(9, 4, 0) // nearer than the RTT says, so every update moves
	warm := func(t *testing.T) *Client {
		cfg := DefaultConfig()
		cfg.Seed = 5
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Observe("p", 20, remote, 0.5); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		return c
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0, -5} {
		control, c := warm(t), warm(t)
		before := c.Snapshot()
		for _, id := range []string{"p", "stranger"} {
			if _, err := c.Observe(id, bad, remote, 0.5); !errors.Is(err, vivaldi.ErrBadSample) {
				t.Errorf("rtt %v from %q: err = %v, want one matching vivaldi.ErrBadSample", bad, id, err)
			}
		}
		if after := c.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("rtt %v changed state: %+v -> %+v", bad, before, after)
		}
		if c.Links() != 1 || len(c.Peers()) != 1 {
			t.Errorf("rtt %v: links %d peers %v, want only \"p\"", bad, c.Links(), c.Peers())
		}
		// The ring holds what it held: the next observations behave as if
		// the bad one had never been sent.
		for i, rtt := range []float64{20, 26, 18, 23} {
			want, werr := control.Observe("p", rtt, remote, 0.5)
			got, gerr := c.Observe("p", rtt, remote, 0.5)
			if werr != nil || gerr != nil {
				t.Fatalf("rtt %v: valid observation %d failed: control %v, client %v", bad, i, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rtt %v: valid observation %d diverged: %+v, want %+v", bad, i, got, want)
			}
		}
	}
}

func TestObserveWarmupThenUpdates(t *testing.T) {
	c, err := NewClient(DefaultConfig())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	// Remote at the origin with a 50 ms RTT: once the filter opens, the
	// spring must push us away.
	remote := Origin(3)
	// First observation: filter warming up (warm-up 2), no movement.
	st, err := c.Observe("peer", 50, remote, 0.5)
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if st.Sys.Vec.Norm() != 0 {
		t.Fatalf("coordinate moved during warm-up: %v", st.Sys)
	}
	// Second observation: update applies.
	st, err = c.Observe("peer", 50, remote, 0.5)
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if st.Sys.Vec.Norm() == 0 {
		t.Fatal("coordinate did not move after warm-up")
	}
	// A few more consistent samples must grow confidence.
	for i := 0; i < 20; i++ {
		st, err = c.Observe("peer", 50, remote, 0.5)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if st.Error >= 1 {
		t.Fatalf("error weight %v did not improve", st.Error)
	}
}

func TestTwoClientsConverge(t *testing.T) {
	cfgA := DefaultConfig()
	cfgA.Seed = 1
	cfgB := DefaultConfig()
	cfgB.Seed = 2
	a, err := NewClient(cfgA)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	b, err := NewClient(cfgB)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rng := xrand.NewStream(3)
	for i := 0; i < 400; i++ {
		// Jittery 50 ms link with occasional spikes — the MP filter
		// must keep convergence clean.
		rtt := 50 * (1 + math.Abs(rng.Normal(0, 0.05)))
		if rng.Bernoulli(0.02) {
			rtt = rng.Uniform(1000, 5000)
		}
		if _, err := a.Observe("b", rtt, b.Coordinate(), b.Error()); err != nil {
			t.Fatalf("a.Observe: %v", err)
		}
		if _, err := b.Observe("a", rtt, a.Coordinate(), a.Error()); err != nil {
			t.Fatalf("b.Observe: %v", err)
		}
	}
	est, err := a.DistanceTo(b.Coordinate())
	if err != nil {
		t.Fatalf("DistanceTo: %v", err)
	}
	if math.Abs(est-50) > 10 {
		t.Fatalf("estimate = %v ms, want ~50 despite spikes", est)
	}
	if a.Confidence() < 0.5 {
		t.Fatalf("confidence = %v", a.Confidence())
	}
}

func TestAppCoordinateMoreStableThanSys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 4
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	remote := Origin(3)
	remote.Vec[0] = 80
	rng := xrand.NewStream(5)
	var sysMoves, appChanges int
	var prevSys Coordinate
	first := true
	for i := 0; i < 1500; i++ {
		rtt := 80 * (1 + math.Abs(rng.Normal(0, 0.08)))
		st, err := c.Observe("r", rtt, remote, 0.5)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if !first && !st.Sys.Equal(prevSys) {
			sysMoves++
		}
		if st.AppChanged {
			appChanges++
		}
		prevSys, first = st.Sys, false
	}
	if sysMoves == 0 {
		t.Fatal("system coordinate never moved")
	}
	if appChanges*10 > sysMoves {
		t.Fatalf("app changed %d times vs %d sys moves; want >10x suppression", appChanges, sysMoves)
	}
}

func TestDistanceAccessors(t *testing.T) {
	c, err := NewClient(DefaultConfig())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	remote := Origin(3)
	remote.Vec = append(remote.Vec[:0], 3, 4, 0)
	d, err := c.DistanceTo(remote)
	if err != nil {
		t.Fatalf("DistanceTo: %v", err)
	}
	if d != 5 {
		t.Fatalf("DistanceTo = %v, want 5", d)
	}
	ad, err := c.AppDistanceTo(remote)
	if err != nil {
		t.Fatalf("AppDistanceTo: %v", err)
	}
	if ad != 5 {
		t.Fatalf("AppDistanceTo = %v, want 5", ad)
	}
	if _, err := c.DistanceTo(Origin(2)); err == nil {
		t.Fatal("mismatched DistanceTo accepted")
	}
}

func TestForgetLink(t *testing.T) {
	c, err := NewClient(DefaultConfig())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	remote := Origin(3)
	remote.Vec[0] = 50
	if _, err := c.Observe("p", 50, remote, 0.5); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if c.Links() != 1 {
		t.Fatalf("Links = %d", c.Links())
	}
	c.ForgetLink("p")
	if c.Links() != 0 {
		t.Fatalf("Links after forget = %d", c.Links())
	}
}

func TestClientConcurrentAccess(t *testing.T) {
	c, err := NewClient(DefaultConfig())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	remote := Origin(3)
	remote.Vec[0] = 50
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.Observe("peer", 50, remote, 0.5); err != nil {
					errCh <- err
					return
				}
				_ = c.Coordinate()
				_ = c.AppCoordinate()
				if _, err := c.DistanceTo(remote); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent access: %v", err)
	}
}

func TestLiveNodePair(t *testing.T) {
	a, err := StartNode(NodeConfig{
		ListenAddr:     "127.0.0.1:0",
		SampleInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartNode a: %v", err)
	}
	defer func() {
		if err := a.Stop(); err != nil {
			t.Errorf("stop a: %v", err)
		}
	}()
	b, err := StartNode(NodeConfig{
		ListenAddr:     "127.0.0.1:0",
		Seeds:          []string{a.Addr()},
		SampleInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartNode b: %v", err)
	}
	defer func() {
		if err := b.Stop(); err != nil {
			t.Errorf("stop b: %v", err)
		}
	}()
	for i := 0; i < 30; i++ {
		if err := b.SampleNow(context.Background()); err != nil {
			t.Fatalf("SampleNow: %v", err)
		}
	}
	if b.Samples() == 0 {
		t.Fatal("live node applied no samples")
	}
	if est, err := b.EstimateRTT(a.Coordinate()); err != nil || est < 0 {
		t.Fatalf("EstimateRTT = %v, %v", est, err)
	}
	if len(b.Neighbors()) == 0 {
		t.Fatal("no neighbors")
	}
}

func BenchmarkClientObserve(b *testing.B) {
	c, err := NewClient(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	remote := Origin(3)
	remote.Vec[0] = 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Observe("peer", 50, remote, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClientWithHeightModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseHeight = true
	cfg.HeightMin = 0.1
	cfg.Seed = 11
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if c.Coordinate().Height != 0.1 {
		t.Fatalf("initial height = %v, want HeightMin", c.Coordinate().Height)
	}
	remote := Origin(3)
	remote.Height = 5
	for i := 0; i < 200; i++ {
		if _, err := c.Observe("peer", 80, remote, 0.5); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	got := c.Coordinate()
	if got.Height < cfg.HeightMin {
		t.Fatalf("height %v fell below minimum", got.Height)
	}
	est, err := c.DistanceTo(remote)
	if err != nil {
		t.Fatalf("DistanceTo: %v", err)
	}
	if math.Abs(est-80) > 15 {
		t.Fatalf("estimate = %v with height model, want ~80", est)
	}
}

func TestConfigZeroValueResolvesToDefaults(t *testing.T) {
	// A zero-value Config must resolve to the paper's defaults rather
	// than failing — zero values should be useful.
	c, err := NewClient(Config{})
	if err != nil {
		t.Fatalf("NewClient(zero): %v", err)
	}
	if c.Coordinate().Dim() != 3 {
		t.Fatalf("dimension = %d", c.Coordinate().Dim())
	}
	remote := Origin(3)
	if _, err := c.Observe("p", 50, remote, 0.5); err != nil {
		t.Fatalf("Observe: %v", err)
	}
}

func TestPerPolicyDefaultThresholds(t *testing.T) {
	// Threshold 0 must resolve to each policy's paper value without
	// error, including the windowless policies.
	for _, kind := range []PolicyKind{PolicySystem, PolicyApplication, PolicyApplicationCentroid, PolicyDirect} {
		cfg := Config{Policy: kind}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatalf("policy %d: %v", kind, err)
		}
		if _, err := c.Observe("p", 50, Origin(3), 0.5); err != nil {
			t.Fatalf("policy %d observe: %v", kind, err)
		}
	}
}
