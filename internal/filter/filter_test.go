package filter

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"netcoord/internal/stats"
	"netcoord/internal/xrand"
)

func mustMP(t *testing.T, cfg MPConfig) *MP {
	t.Helper()
	f, err := NewMP(cfg)
	if err != nil {
		t.Fatalf("NewMP: %v", err)
	}
	return f
}

func TestMPConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     MPConfig
		wantErr bool
	}{
		{name: "defaults", cfg: DefaultMPConfig()},
		{name: "history 1", cfg: MPConfig{History: 1, Percentile: 50, UpdateAfter: 1}},
		{name: "zero history", cfg: MPConfig{History: 0, Percentile: 25, UpdateAfter: 1}, wantErr: true},
		{name: "negative percentile", cfg: MPConfig{History: 4, Percentile: -1, UpdateAfter: 1}, wantErr: true},
		{name: "percentile over 100", cfg: MPConfig{History: 4, Percentile: 101, UpdateAfter: 1}, wantErr: true},
		{name: "NaN percentile", cfg: MPConfig{History: 4, Percentile: math.NaN(), UpdateAfter: 1}, wantErr: true},
		{name: "zero update-after", cfg: MPConfig{History: 4, Percentile: 25, UpdateAfter: 0}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.wantErr && err == nil {
				t.Fatal("Validate succeeded, want error")
			}
			if !tt.wantErr && err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestDefaultMPConfigMatchesPaper(t *testing.T) {
	cfg := DefaultMPConfig()
	if cfg.History != 4 {
		t.Errorf("History = %d, want 4 (paper Figure 4)", cfg.History)
	}
	if cfg.Percentile != 25 {
		t.Errorf("Percentile = %v, want 25 (paper Section IV-A)", cfg.Percentile)
	}
	if cfg.UpdateAfter != 2 {
		t.Errorf("UpdateAfter = %d, want 2 (paper Section VI)", cfg.UpdateAfter)
	}
}

func TestMPWarmup(t *testing.T) {
	f := mustMP(t, MPConfig{History: 4, Percentile: 25, UpdateAfter: 2})
	if _, ok := f.Observe(100); ok {
		t.Fatal("first observation produced output with UpdateAfter=2")
	}
	if _, ok := f.Observe(100); !ok {
		t.Fatal("second observation produced no output")
	}
}

func TestMPDiscardsOutliers(t *testing.T) {
	f := mustMP(t, MPConfig{History: 4, Percentile: 25, UpdateAfter: 1})
	// Common case ~50 ms, one 5000 ms spike.
	f.Observe(50)
	f.Observe(52)
	f.Observe(51)
	est, ok := f.Observe(5000)
	if !ok {
		t.Fatal("no output")
	}
	if est > 55 {
		t.Fatalf("estimate %v polluted by spike, want ~50", est)
	}
}

func TestMPTracksShift(t *testing.T) {
	f := mustMP(t, MPConfig{History: 4, Percentile: 25, UpdateAfter: 1})
	for i := 0; i < 8; i++ {
		f.Observe(50)
	}
	// Link latency genuinely shifts to 120 ms (route change); within h
	// observations the estimate must follow.
	var est float64
	for i := 0; i < 4; i++ {
		est, _ = f.Observe(120)
	}
	if est != 120 {
		t.Fatalf("estimate %v after full window of 120s, want 120", est)
	}
}

func TestMPWindowEviction(t *testing.T) {
	f := mustMP(t, MPConfig{History: 2, Percentile: 100, UpdateAfter: 1})
	f.Observe(10)
	f.Observe(20)
	est, _ := f.Observe(5) // window now {20, 5}; max = 20
	if est != 20 {
		t.Fatalf("estimate %v, want 20", est)
	}
	est, _ = f.Observe(5) // window now {5, 5}
	if est != 5 {
		t.Fatalf("estimate %v, want 5 after 10 evicted", est)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
}

func TestMPPercentileAgainstStats(t *testing.T) {
	// The internal percentile must agree with the stats package's
	// definition on full windows.
	rng := xrand.NewStream(1)
	for trial := 0; trial < 50; trial++ {
		h := 1 + rng.Intn(16)
		p := rng.Float64() * 100
		f := mustMP(t, MPConfig{History: h, Percentile: p, UpdateAfter: 1})
		window := make([]float64, 0, h)
		var got float64
		for i := 0; i < h; i++ {
			s := rng.Float64() * 1000
			window = append(window, s)
			got, _ = f.Observe(s)
		}
		sort.Float64s(window)
		want, err := stats.PercentileSorted(window, p)
		if err != nil {
			t.Fatalf("PercentileSorted: %v", err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (h=%d p=%.1f): filter=%v stats=%v", trial, h, p, got, want)
		}
	}
}

func TestMPReset(t *testing.T) {
	f := mustMP(t, MPConfig{History: 4, Percentile: 25, UpdateAfter: 2})
	f.Observe(10)
	f.Observe(10)
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("Len after Reset = %d", f.Len())
	}
	if _, ok := f.Observe(10); ok {
		t.Fatal("filter produced output immediately after Reset with UpdateAfter=2")
	}
}

// Property: the MP estimate always lies within [min, max] of the current
// window contents.
func TestMPEstimateBounded(t *testing.T) {
	f := func(samples []float64) bool {
		if len(samples) == 0 {
			return true
		}
		mp, err := NewMP(MPConfig{History: 4, Percentile: 25, UpdateAfter: 1})
		if err != nil {
			return false
		}
		window := make([]float64, 0, 4)
		for _, s := range samples {
			s = math.Abs(s)
			if math.IsNaN(s) || math.IsInf(s, 0) {
				s = 1
			}
			if len(window) == 4 {
				window = window[1:]
			}
			window = append(window, s)
			est, ok := mp.Observe(s)
			if !ok {
				return false
			}
			lo, hi := window[0], window[0]
			for _, w := range window {
				lo = math.Min(lo, w)
				hi = math.Max(hi, w)
			}
			if est < lo-1e-9 || est > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMA(t *testing.T) {
	f, err := NewEWMA(0.5)
	if err != nil {
		t.Fatalf("NewEWMA: %v", err)
	}
	est, ok := f.Observe(100)
	if !ok || est != 100 {
		t.Fatalf("first observation = %v, %v; want 100, true", est, ok)
	}
	est, _ = f.Observe(200)
	if est != 150 {
		t.Fatalf("second estimate = %v, want 150", est)
	}
	est, _ = f.Observe(150)
	if est != 150 {
		t.Fatalf("third estimate = %v, want 150", est)
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.1} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Errorf("NewEWMA(%v) succeeded", alpha)
		}
	}
	if _, err := NewEWMA(1); err != nil {
		t.Errorf("NewEWMA(1) failed: %v", err)
	}
}

func TestEWMAOutlierContaminates(t *testing.T) {
	// Documents the pathology from Table I: an EWMA drags the estimate
	// toward outliers instead of discarding them.
	f, err := NewEWMA(0.2)
	if err != nil {
		t.Fatalf("NewEWMA: %v", err)
	}
	var est float64
	for i := 0; i < 20; i++ {
		est, _ = f.Observe(50)
	}
	est, _ = f.Observe(5000)
	if est < 1000 {
		t.Fatalf("estimate %v after 5000 ms spike; EWMA should be contaminated (>= 1000)", est)
	}
}

func TestEWMAReset(t *testing.T) {
	f, err := NewEWMA(0.1)
	if err != nil {
		t.Fatalf("NewEWMA: %v", err)
	}
	f.Observe(500)
	f.Reset()
	est, _ := f.Observe(10)
	if est != 10 {
		t.Fatalf("estimate after Reset = %v, want 10 (re-primed)", est)
	}
}

func TestThreshold(t *testing.T) {
	f, err := NewThreshold(1000)
	if err != nil {
		t.Fatalf("NewThreshold: %v", err)
	}
	if est, ok := f.Observe(500); !ok || est != 500 {
		t.Fatalf("below-cutoff = %v, %v", est, ok)
	}
	if _, ok := f.Observe(1500); ok {
		t.Fatal("above-cutoff sample passed")
	}
	if est, ok := f.Observe(1000); !ok || est != 1000 {
		t.Fatalf("at-cutoff = %v, %v; want pass", est, ok)
	}
}

func TestThresholdValidation(t *testing.T) {
	for _, cutoff := range []float64{0, -5} {
		if _, err := NewThreshold(cutoff); err == nil {
			t.Errorf("NewThreshold(%v) succeeded", cutoff)
		}
	}
}

func TestNonePassesEverything(t *testing.T) {
	f := NewNone()
	for _, s := range []float64{0, 1, 1e6} {
		est, ok := f.Observe(s)
		if !ok || est != s {
			t.Fatalf("Observe(%v) = %v, %v", s, est, ok)
		}
	}
	f.Reset() // must not panic or change behavior
	if est, ok := f.Observe(7); !ok || est != 7 {
		t.Fatal("None changed behavior after Reset")
	}
}

func TestBankPerPeerIsolation(t *testing.T) {
	bank := NewBank[string](func() Filter {
		f, _ := NewMP(MPConfig{History: 4, Percentile: 25, UpdateAfter: 1})
		return f
	}, 0)
	// Peer A sees 50s; peer B sees 200s. Estimates must not mix.
	for i := 0; i < 4; i++ {
		bank.Observe("a", 50)
		bank.Observe("b", 200)
	}
	estA, _ := bank.Observe("a", 50)
	estB, _ := bank.Observe("b", 200)
	if estA != 50 {
		t.Fatalf("peer a estimate = %v", estA)
	}
	if estB != 200 {
		t.Fatalf("peer b estimate = %v", estB)
	}
	if bank.Peers() != 2 {
		t.Fatalf("Peers = %d", bank.Peers())
	}
}

func TestBankForget(t *testing.T) {
	warm := 0
	bank := NewBank[string](func() Filter {
		warm++
		f, _ := NewMP(DefaultMPConfig())
		return f
	}, 0)
	bank.Observe("a", 50)
	bank.Forget("a")
	bank.Observe("a", 50)
	if warm != 2 {
		t.Fatalf("factory called %d times, want 2 (state dropped)", warm)
	}
}

func TestBankMaxPeers(t *testing.T) {
	bank := NewBank[string](func() Filter { return NewNone() }, 2)
	bank.Observe("a", 1)
	bank.Observe("b", 2)
	// Third peer: over the bound, must still produce output but not grow
	// the table.
	est, ok := bank.Observe("c", 3)
	if !ok || est != 3 {
		t.Fatalf("over-bound peer output = %v, %v", est, ok)
	}
	if bank.Peers() != 2 {
		t.Fatalf("Peers = %d, want 2", bank.Peers())
	}
}

func TestBankMaxPeersOverflowBypassesWarmup(t *testing.T) {
	// Regression: the overflow path used to route unknown peers through
	// a throwaway factory filter; with the default MP warm-up of 2 a
	// single-sample fresh filter always reported not-ready, so overflow
	// peers' samples were silently dropped forever. The overflow path
	// must pass the raw sample through instead.
	bank := NewBank[string](func() Filter {
		f, _ := NewMP(DefaultMPConfig())
		return f
	}, 1)
	bank.Observe("a", 50)
	for i := 0; i < 5; i++ {
		est, ok := bank.Observe("overflow", 80)
		if !ok {
			t.Fatalf("overflow peer sample %d swallowed by warm-up", i)
		}
		if est != 80 {
			t.Fatalf("overflow peer estimate = %v, want raw 80", est)
		}
	}
	if bank.Peers() != 1 {
		t.Fatalf("Peers = %d, want table still bounded at 1", bank.Peers())
	}
}

func TestBankReset(t *testing.T) {
	bank := NewBank[string](func() Filter {
		f, _ := NewMP(MPConfig{History: 4, Percentile: 25, UpdateAfter: 2})
		return f
	}, 0)
	bank.Observe("a", 50)
	bank.Observe("a", 50)
	if _, ok := bank.Observe("a", 50); !ok {
		t.Fatal("expected warm filter before Reset")
	}
	bank.Reset()
	if _, ok := bank.Observe("a", 50); ok {
		t.Fatal("filter warm immediately after Reset")
	}
	if bank.Peers() != 1 {
		t.Fatalf("Peers = %d, want 1 (peers retained)", bank.Peers())
	}
}

// TestMPRingMatchesSortReference holds the ring filter to the plain
// definition bit for bit: keep the last h samples oldest first, sort a
// copy and read stats.PercentileSorted. Streams are seeded, half of
// them drawn from a few values so that ties are common, and each is
// Reset part way through.
func TestMPRingMatchesSortReference(t *testing.T) {
	rng := xrand.NewStream(7)
	for _, h := range []int{1, 4, 17} { // 17 is past the insertion-sort cutoff
		for _, p := range []float64{0, 25, 50, 100} {
			for after := 1; after <= 3; after++ {
				for _, ties := range []bool{false, true} {
					cfg := MPConfig{History: h, Percentile: p, UpdateAfter: after}
					f := mustMP(t, cfg)
					var hist []float64
					seen := 0
					resetAt := 5 + rng.Intn(40)
					for i := 0; i < 100; i++ {
						if i == resetAt {
							f.Reset()
							hist, seen = hist[:0], 0
						}
						s := 20 + rng.Pareto(10, 1.5)
						if ties {
							s = float64(10 * (1 + rng.Intn(3)))
						}
						hist = append(hist, s)
						if len(hist) > h {
							hist = hist[1:]
						}
						seen++
						got, ok := f.Observe(s)
						if wantOK := seen >= after; ok != wantOK {
							t.Fatalf("%+v ties=%v sample %d: ok = %v, want %v", cfg, ties, i, ok, wantOK)
						}
						if f.Len() != len(hist) {
							t.Fatalf("%+v ties=%v sample %d: Len = %d, want %d", cfg, ties, i, f.Len(), len(hist))
						}
						if !ok {
							continue
						}
						sorted := append([]float64(nil), hist...)
						sort.Float64s(sorted)
						want, err := stats.PercentileSorted(sorted, p)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%+v ties=%v sample %d: %v, want %v (history %v)", cfg, ties, i, got, want, hist)
						}
					}
				}
			}
		}
	}
}

// TestDenseMatchesBank runs one seeded script of Observe, Forget, Reset
// and Peers against a Dense table and an unbounded Bank: every estimate
// must agree bit for bit and every count exactly.
func TestDenseMatchesBank(t *testing.T) {
	factory, err := MPFactory(MPConfig{History: 4, Percentile: 25, UpdateAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	dense, bank := NewDense(factory, n), NewBank[int](factory, 0)
	rng := xrand.NewStream(11)
	for i := 0; i < 5000; i++ {
		peer := rng.Intn(n)
		switch op := rng.Intn(100); {
		case op < 2:
			dense.Reset()
			bank.Reset()
		case op < 8:
			dense.Forget(peer) // often a peer with no state
			bank.Forget(peer)
		default:
			s := 20 + rng.Pareto(10, 1.5)
			got, gotOK := dense.Observe(peer, s)
			want, wantOK := bank.Observe(peer, s)
			if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
				t.Fatalf("op %d: peer %d: dense %v,%v, bank %v,%v", i, peer, got, gotOK, want, wantOK)
			}
		}
		if dense.Peers() != bank.Peers() {
			t.Fatalf("op %d: dense holds %d peers, bank %d", i, dense.Peers(), bank.Peers())
		}
	}
}

// TestNilFactoryIsNoFilter: both tables read a nil factory as the
// paper's "No Filter" configuration.
func TestNilFactoryIsNoFilter(t *testing.T) {
	for name, links := range map[string]interface {
		Observe(int, float64) (float64, bool)
		Peers() int
	}{"bank": NewBank[int](nil, 0), "dense": NewDense(nil, 2)} {
		if est, ok := links.Observe(1, 42); !ok || est != 42 || links.Peers() != 1 {
			t.Errorf("%s: Observe = %v, %v with %d peers; want the raw sample from one peer", name, est, ok, links.Peers())
		}
	}
}

// The headline claim of Figure 4: on heavy-tailed input, a short history
// with a low percentile predicts the next observation far better than the
// raw stream does.
func TestMPPredictsBetterThanRawOnHeavyTail(t *testing.T) {
	rng := xrand.NewStream(42)
	const base = 80.0
	gen := func() float64 {
		if rng.Bernoulli(0.05) {
			return base * rng.Uniform(5, 40) // spike
		}
		return base * (1 + math.Abs(rng.Normal(0, 0.05)))
	}
	mp := mustMP(t, MPConfig{History: 4, Percentile: 25, UpdateAfter: 1})
	var rawPrev float64
	var mpErrs, rawErrs []float64
	prevSet := false
	var mpPrev float64
	mpSet := false
	for i := 0; i < 20000; i++ {
		s := gen()
		if prevSet {
			rawErrs = append(rawErrs, math.Abs(rawPrev-s)/s)
		}
		if mpSet {
			mpErrs = append(mpErrs, math.Abs(mpPrev-s)/s)
		}
		rawPrev, prevSet = s, true
		if est, ok := mp.Observe(s); ok {
			mpPrev, mpSet = est, true
		}
	}
	mpMed, err := stats.Median(mpErrs)
	if err != nil {
		t.Fatalf("Median: %v", err)
	}
	rawMed, err := stats.Median(rawErrs)
	if err != nil {
		t.Fatalf("Median: %v", err)
	}
	if mpMed >= rawMed {
		t.Fatalf("MP median prediction error %v not better than raw %v", mpMed, rawMed)
	}
}

func BenchmarkMPObserve(b *testing.B) {
	f, err := NewMP(DefaultMPConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Observe(float64(i % 100))
	}
}

func BenchmarkBankObserve(b *testing.B) {
	bank := NewBank[string](func() Filter {
		f, _ := NewMP(DefaultMPConfig())
		return f
	}, 0)
	peers := []string{"a", "b", "c", "d", "e"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bank.Observe(peers[i%len(peers)], float64(i%100))
	}
}

func BenchmarkDenseObserve(b *testing.B) {
	dense := NewDense(func() Filter {
		f, _ := NewMP(DefaultMPConfig())
		return f
	}, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dense.Observe(i%5, float64(i%100))
	}
}

// TestFactoriesValidateOnce: a factory constructor refuses exactly what
// the filter constructor refuses, and the factory it returns builds
// independent filters that answer like the constructor's.
func TestFactoriesValidateOnce(t *testing.T) {
	samples := []float64{80, 400, 82, 79, 300, 81, 20, 83}
	for _, tc := range []struct {
		name      string
		good, bad func() (Factory, error)
		direct    func() Filter
	}{{
		name:   "mp",
		good:   func() (Factory, error) { return MPFactory(DefaultMPConfig()) },
		bad:    func() (Factory, error) { return MPFactory(MPConfig{History: 0, Percentile: 25, UpdateAfter: 1}) },
		direct: func() Filter { return mustMP(t, DefaultMPConfig()) },
	}, {
		name:   "ewma",
		good:   func() (Factory, error) { return EWMAFactory(0.1) },
		bad:    func() (Factory, error) { return EWMAFactory(0) },
		direct: func() Filter { f, _ := NewEWMA(0.1); return f },
	}, {
		name:   "threshold",
		good:   func() (Factory, error) { return ThresholdFactory(250) },
		bad:    func() (Factory, error) { return ThresholdFactory(-1) },
		direct: func() Filter { f, _ := NewThreshold(250); return f },
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if f, err := tc.bad(); err == nil || f != nil {
				t.Fatalf("invalid parameters gave factory %v, err %v; want nil and an error", f != nil, err)
			}
			factory, err := tc.good()
			if err != nil {
				t.Fatal(err)
			}
			a, b, want := factory(), factory(), tc.direct()
			for i, s := range samples {
				got, gotOK := a.Observe(s)
				exp, expOK := want.Observe(s)
				if got != exp || gotOK != expOK {
					t.Fatalf("sample %d: factory filter says %v,%v, constructor's says %v,%v", i, got, gotOK, exp, expOK)
				}
			}
			// b saw nothing of what a saw.
			got, gotOK := b.Observe(samples[0])
			fresh, freshOK := tc.direct().Observe(samples[0])
			if got != fresh || gotOK != freshOK {
				t.Fatalf("second filter from the factory shares state: %v,%v vs fresh %v,%v", got, gotOK, fresh, freshOK)
			}
		})
	}
}
