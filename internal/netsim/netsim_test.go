package netsim

import (
	"math"
	"testing"

	"netcoord/internal/stats"
)

func mustNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{name: "default wide area", mutate: func(*Config) {}, ok: true},
		{name: "one node", mutate: func(c *Config) { c.Nodes = 1 }},
		{name: "no regions", mutate: func(c *Config) { c.Regions = nil }},
		{name: "negative spread", mutate: func(c *Config) { c.Regions[0].Spread = -1 }},
		{name: "access range inverted", mutate: func(c *Config) { c.AccessMax = c.AccessMin - 1 }},
		{name: "spike prob over 1", mutate: func(c *Config) { c.SpikeProb = 1.5 }},
		{name: "loss prob negative", mutate: func(c *Config) { c.LossProb = -0.1 }},
		{name: "zero min latency", mutate: func(c *Config) { c.MinLatency = 0 }},
		{name: "drift wrong length", mutate: func(c *Config) { c.DriftPerHour = []Drift{{1, 0}} }},
		{name: "route change bad region", mutate: func(c *Config) {
			c.RouteChanges = []RouteChange{{RegionA: 99, RegionB: 0, Factor: 2}}
		}},
		{name: "route change bad factor", mutate: func(c *Config) {
			c.RouteChanges = []RouteChange{{RegionA: 0, RegionB: 1, Factor: 0}}
		}},
		{name: "valid route change", mutate: func(c *Config) {
			c.RouteChanges = []RouteChange{{AtTick: 100, RegionA: 0, RegionB: 1, Factor: 2}}
		}, ok: true},
		{name: "valid drift", mutate: func(c *Config) {
			c.DriftPerHour = []Drift{{1, 0}, {0, 0}, {0, 0}, {0, 1}}
		}, ok: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultWideArea(20, 1)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.ok && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tt.ok && err == nil {
				t.Fatal("Validate succeeded, want error")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a := mustNetwork(t, DefaultWideArea(30, 7))
	b := mustNetwork(t, DefaultWideArea(30, 7))
	for tick := uint64(0); tick < 50; tick++ {
		ra, oka := a.Sample(1, 2, tick)
		rb, okb := b.Sample(1, 2, tick)
		if oka != okb || ra != rb {
			t.Fatalf("tick %d: same-seed networks diverged: (%v,%v) vs (%v,%v)", tick, ra, oka, rb, okb)
		}
	}
	c := mustNetwork(t, DefaultWideArea(30, 8))
	same := 0
	for tick := uint64(0); tick < 50; tick++ {
		ra, _ := a.Sample(1, 2, tick)
		rc, _ := c.Sample(1, 2, tick)
		if ra == rc {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds matched %d/50 samples", same)
	}
}

func TestSampleOrderIndependence(t *testing.T) {
	n := mustNetwork(t, DefaultWideArea(30, 7))
	// Reading samples in any order must not change their values.
	r1, _ := n.Sample(3, 4, 100)
	_, _ = n.Sample(9, 2, 55)
	_, _ = n.Sample(3, 4, 99)
	r2, _ := n.Sample(3, 4, 100)
	if r1 != r2 {
		t.Fatalf("sample changed between reads: %v vs %v", r1, r2)
	}
}

func TestBaseRTTSymmetricAndPositive(t *testing.T) {
	n := mustNetwork(t, DefaultWideArea(40, 3))
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			rtt := n.BaseRTT(i, j, 0)
			if i == j {
				if rtt != 0 {
					t.Fatalf("self RTT = %v", rtt)
				}
				continue
			}
			if rtt <= 0 {
				t.Fatalf("BaseRTT(%d,%d) = %v", i, j, rtt)
			}
			if rev := n.BaseRTT(j, i, 0); rev != rtt {
				t.Fatalf("asymmetric base RTT: %v vs %v", rtt, rev)
			}
		}
	}
}

func TestIntraRegionFasterThanInterRegion(t *testing.T) {
	n := mustNetwork(t, DefaultWideArea(40, 3))
	// Node 0 and node 4 share region 0 (round-robin, 4 regions);
	// node 0 and node 3 are us-west vs china.
	intra := n.BaseRTT(0, 4, 0)
	inter := n.BaseRTT(0, 3, 0)
	if intra >= inter {
		t.Fatalf("intra-region %v >= inter-region %v", intra, inter)
	}
	if inter < 100 {
		t.Fatalf("us-west to china base = %v ms, want intercontinental scale", inter)
	}
}

func TestRegionAssignmentRoundRobin(t *testing.T) {
	n := mustNetwork(t, DefaultWideArea(9, 1))
	if n.Region(0) != "us-west" || n.Region(1) != "us-east" || n.Region(2) != "europe" || n.Region(3) != "china" {
		t.Fatalf("regions: %s %s %s %s", n.Region(0), n.Region(1), n.Region(2), n.Region(3))
	}
	if n.Region(4) != "us-west" {
		t.Fatalf("round robin broken: node 4 in %s", n.Region(4))
	}
	if n.Region(5) != "us-east" {
		t.Fatalf("round robin broken: node 5 in %s", n.Region(5))
	}
	if n.Nodes() != 9 {
		t.Fatalf("Nodes = %d", n.Nodes())
	}
}

// Calibration against the paper's Figure 2: roughly 0.4% of samples
// exceed one second, and the common case stays far below.
func TestSpikeCalibration(t *testing.T) {
	n := mustNetwork(t, DefaultWideArea(20, 5))
	hist, err := stats.NewHistogram(stats.Fig2Bounds())
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	var total, lost int
	for tick := uint64(0); tick < 500; tick++ {
		for i := 0; i < n.Nodes(); i++ {
			for j := 0; j < n.Nodes(); j++ {
				if i == j {
					continue
				}
				total++
				rtt, ok := n.Sample(i, j, tick)
				if !ok {
					lost++
					continue
				}
				hist.Observe(rtt)
			}
		}
	}
	frac := hist.FractionAtOrAbove(1000)
	if frac < 0.002 || frac > 0.010 {
		t.Fatalf("fraction >= 1 s = %.4f, want ~0.004 (Figure 2)", frac)
	}
	lossRate := float64(lost) / float64(total)
	if lossRate < 0.0005 || lossRate > 0.01 {
		t.Fatalf("loss rate = %.4f", lossRate)
	}
	// The bulk of the distribution must sit in the sub-second buckets.
	if below := 1 - frac; below < 0.98 {
		t.Fatalf("only %.4f of samples below 1 s", below)
	}
}

// Per-link structure from Figure 3: a long tail exists on individual
// links, spread over time rather than clustered.
func TestPerLinkHeavyTailSpreadOverTime(t *testing.T) {
	n := mustNetwork(t, DefaultWideArea(20, 9))
	const ticks = 20000
	var spikes []uint64
	var values []float64
	for tick := uint64(0); tick < ticks; tick++ {
		rtt, ok := n.Sample(0, 3, tick)
		if !ok {
			continue
		}
		values = append(values, rtt)
		if rtt >= 1000 {
			spikes = append(spikes, tick)
		}
	}
	med, err := stats.Median(values)
	if err != nil {
		t.Fatalf("Median: %v", err)
	}
	maxV, err := stats.Percentile(values, 100)
	if err != nil {
		t.Fatalf("Percentile: %v", err)
	}
	if maxV < 10*med {
		t.Fatalf("max %v not orders of magnitude above median %v", maxV, med)
	}
	if len(spikes) < 10 {
		t.Fatalf("only %d spikes in %d samples", len(spikes), ticks)
	}
	// Spread over time: spikes must appear in both halves of the trace.
	firstHalf, secondHalf := 0, 0
	for _, s := range spikes {
		if s < ticks/2 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	if firstHalf == 0 || secondHalf == 0 {
		t.Fatalf("spikes clustered: %d in first half, %d in second", firstHalf, secondHalf)
	}
}

func TestStaticModeNoiseless(t *testing.T) {
	cfg := DefaultWideArea(10, 2)
	cfg.Static = true
	cfg.LossProb = 0.5 // must be ignored in static mode
	n := mustNetwork(t, cfg)
	base := n.BaseRTT(0, 1, 0)
	for tick := uint64(0); tick < 100; tick++ {
		rtt, ok := n.Sample(0, 1, tick)
		if !ok {
			t.Fatal("static mode lost a sample")
		}
		if rtt != base {
			t.Fatalf("static sample %v != base %v", rtt, base)
		}
	}
}

func TestLowLatencyClusterProfile(t *testing.T) {
	n := mustNetwork(t, LowLatencyCluster(3, 4))
	var values []float64
	for tick := uint64(0); tick < 5000; tick++ {
		rtt, ok := n.Sample(0, 1, tick)
		if !ok {
			t.Fatal("cluster profile lost a sample")
		}
		values = append(values, rtt)
	}
	med, err := stats.Median(values)
	if err != nil {
		t.Fatalf("Median: %v", err)
	}
	if med < 0.3 || med > 1.5 {
		t.Fatalf("cluster median = %v ms, want sub-1.5ms (Section IV-B)", med)
	}
	// "a tail of 5% of the observations above 1.2ms"
	p94, err := stats.Percentile(values, 94)
	if err != nil {
		t.Fatalf("Percentile: %v", err)
	}
	tail := 0
	for _, v := range values {
		if v > 1.2 {
			tail++
		}
	}
	tailFrac := float64(tail) / float64(len(values))
	if tailFrac < 0.01 || tailFrac > 0.25 {
		t.Fatalf("tail fraction above 1.2 ms = %.3f, want a visible minority", tailFrac)
	}
	_ = p94
}

func TestRouteChangeShiftsBase(t *testing.T) {
	cfg := DefaultWideArea(8, 6)
	cfg.RouteChanges = []RouteChange{{AtTick: 1000, RegionA: 0, RegionB: 2, Factor: 2}}
	n := mustNetwork(t, cfg)
	// Node 0 is us-west, node 2 is europe.
	before := n.BaseRTT(0, 2, 999)
	after := n.BaseRTT(0, 2, 1000)
	if math.Abs(after-2*before) > 1e-9 {
		t.Fatalf("route change: before %v, after %v, want doubled", before, after)
	}
	// Unaffected pair (us-west to us-east).
	b1, a1 := n.BaseRTT(0, 1, 999), n.BaseRTT(0, 1, 1000)
	if b1 != a1 {
		t.Fatalf("unaffected pair changed: %v vs %v", b1, a1)
	}
}

func TestRegionalDriftMovesBase(t *testing.T) {
	cfg := DefaultWideArea(8, 6)
	cfg.DriftPerHour = []Drift{{DX: 10, DY: 0}, {}, {}, {}}
	n := mustNetwork(t, cfg)
	// us-west drifts toward us-east at 10 ms/hour along x.
	start := n.BaseRTT(0, 1, 0)
	after3h := n.BaseRTT(0, 1, 3*3600)
	if math.Abs(start-after3h) < 5 {
		t.Fatalf("3 h of drift changed base by only %v ms", math.Abs(start-after3h))
	}
	// Intra-region pair (both us-west) drifts together: unchanged.
	intraStart := n.BaseRTT(0, 4, 0)
	intraAfter := n.BaseRTT(0, 4, 3*3600)
	if math.Abs(intraStart-intraAfter) > 1e-6 {
		t.Fatalf("co-drifting pair changed: %v vs %v", intraStart, intraAfter)
	}
}

func TestTriangleViolationsExist(t *testing.T) {
	n := mustNetwork(t, DefaultWideArea(60, 11))
	violations := 0
	checked := 0
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			for k := j + 1; k < 20; k++ {
				checked++
				ij := n.BaseRTT(i, j, 0)
				jk := n.BaseRTT(j, k, 0)
				ik := n.BaseRTT(i, k, 0)
				if ik > ij+jk {
					violations++
				}
			}
		}
	}
	if violations == 0 {
		t.Fatalf("no triangle violations in %d triples; TIV term inactive", checked)
	}
}

func BenchmarkSample(b *testing.B) {
	n, err := New(DefaultWideArea(100, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Sample(i%100, (i+1)%100, uint64(i))
	}
}
