package window

import (
	"math"
	"testing"

	"netcoord/internal/stats"
	"netcoord/internal/vec"
	"netcoord/internal/xrand"
)

func mustPair(t *testing.T, k, dim int) *Pair {
	t.Helper()
	p, err := NewPair(k, dim)
	if err != nil {
		t.Fatalf("NewPair: %v", err)
	}
	return p
}

func appendN(t *testing.T, p *Pair, pts []vec.Vector) {
	t.Helper()
	for _, pt := range pts {
		if err := p.Append(pt); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func cloud(rng *xrand.Stream, n int, cx, cy, cz, spread float64) []vec.Vector {
	out := make([]vec.Vector, n)
	for i := range out {
		out[i] = vec.New(cx+rng.Normal(0, spread), cy+rng.Normal(0, spread), cz+rng.Normal(0, spread))
	}
	return out
}

func TestNewPairValidation(t *testing.T) {
	if _, err := NewPair(0, 3); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewPair(4, 0); err == nil {
		t.Fatal("dim=0 accepted")
	}
	p, err := NewPair(4, 3)
	if err != nil {
		t.Fatalf("NewPair: %v", err)
	}
	if p.K() != 4 {
		t.Fatalf("K = %d", p.K())
	}
}

func TestFillPhase(t *testing.T) {
	p := mustPair(t, 3, 2)
	if p.Full() {
		t.Fatal("empty pair reports Full")
	}
	appendN(t, p, []vec.Vector{vec.New(1, 1), vec.New(2, 2)})
	if p.Full() {
		t.Fatal("partially filled pair reports Full")
	}
	appendN(t, p, []vec.Vector{vec.New(3, 3)})
	if !p.Full() {
		t.Fatal("pair not Full after k elements")
	}
	// During fill, Ws and Wc hold the same elements.
	start, cur := p.Start(), p.Current()
	if len(start) != 3 || len(cur) != 3 {
		t.Fatalf("window sizes %d/%d", len(start), len(cur))
	}
	for i := range start {
		if !start[i].Equal(cur[i]) {
			t.Fatalf("fill phase windows differ at %d: %v vs %v", i, start[i], cur[i])
		}
	}
}

func TestSlidePhase(t *testing.T) {
	p := mustPair(t, 3, 1)
	appendN(t, p, []vec.Vector{vec.New(1), vec.New(2), vec.New(3)})
	appendN(t, p, []vec.Vector{vec.New(4), vec.New(5)})
	start := p.Start()
	if !start[0].Equal(vec.New(1)) || !start[2].Equal(vec.New(3)) {
		t.Fatalf("start window changed after freeze: %v", start)
	}
	cur := p.Current()
	want := []float64{3, 4, 5}
	for i, w := range want {
		if cur[i][0] != w {
			t.Fatalf("current window = %v, want [3 4 5]", cur)
		}
	}
}

func TestAppendCopiesInput(t *testing.T) {
	p := mustPair(t, 2, 2)
	buf := vec.New(1, 1)
	if err := p.Append(buf); err != nil {
		t.Fatalf("Append: %v", err)
	}
	buf[0] = 99
	if p.Start()[0][0] != 1 {
		t.Fatal("Append aliased caller's buffer")
	}
}

func TestAppendDimensionMismatch(t *testing.T) {
	p := mustPair(t, 2, 3)
	if err := p.Append(vec.New(1, 2)); err == nil {
		t.Fatal("mismatched append accepted")
	}
}

func TestReset(t *testing.T) {
	p := mustPair(t, 2, 1)
	appendN(t, p, []vec.Vector{vec.New(1), vec.New(2), vec.New(3)})
	if !p.Full() {
		t.Fatal("setup: pair should be full")
	}
	p.Reset()
	if p.Full() {
		t.Fatal("pair Full after Reset")
	}
	if len(p.Start()) != 0 || len(p.Current()) != 0 {
		t.Fatal("windows not emptied by Reset")
	}
	// Refill works.
	appendN(t, p, []vec.Vector{vec.New(5), vec.New(6)})
	if !p.Full() {
		t.Fatal("pair not Full after refill")
	}
}

func TestCentroids(t *testing.T) {
	p := mustPair(t, 2, 2)
	appendN(t, p, []vec.Vector{vec.New(0, 0), vec.New(2, 2)})
	sc, err := p.StartCentroid()
	if err != nil {
		t.Fatalf("StartCentroid: %v", err)
	}
	if !sc.Equal(vec.New(1, 1)) {
		t.Fatalf("StartCentroid = %v", sc)
	}
	// Slide in two new points; start centroid must not change, current
	// must follow.
	appendN(t, p, []vec.Vector{vec.New(10, 10), vec.New(12, 12)})
	sc2, err := p.StartCentroid()
	if err != nil {
		t.Fatalf("StartCentroid: %v", err)
	}
	if !sc2.Equal(vec.New(1, 1)) {
		t.Fatalf("StartCentroid moved to %v", sc2)
	}
	cc, err := p.CurrentCentroid()
	if err != nil {
		t.Fatalf("CurrentCentroid: %v", err)
	}
	if !cc.Equal(vec.New(11, 11)) {
		t.Fatalf("CurrentCentroid = %v", cc)
	}
}

func TestCentroidBeforeFull(t *testing.T) {
	p := mustPair(t, 4, 2)
	appendN(t, p, []vec.Vector{vec.New(1, 1)})
	if _, err := p.StartCentroid(); err == nil {
		t.Fatal("StartCentroid before full succeeded")
	}
	if _, err := p.CurrentCentroid(); err == nil {
		t.Fatal("CurrentCentroid before full succeeded")
	}
	if _, err := p.Energy(); err == nil {
		t.Fatal("Energy before full succeeded")
	}
}

// The central property: the incrementally maintained energy statistic
// must match the O(k^2) definition from the stats package after any
// number of slides.
func TestIncrementalEnergyMatchesNaive(t *testing.T) {
	rng := xrand.NewStream(11)
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(15)
		p := mustPair(t, k, 3)
		// Fill, then slide a random number of times with points from a
		// drifting distribution.
		n := k + rng.Intn(4*k)
		for i := 0; i < n; i++ {
			drift := float64(i) * 0.5
			pt := vec.New(rng.Normal(drift, 2), rng.Normal(0, 2), rng.Normal(0, 2))
			if err := p.Append(pt); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if !p.Full() {
			continue
		}
		got, err := p.Energy()
		if err != nil {
			t.Fatalf("Energy: %v", err)
		}
		want, err := stats.EnergyDistance(p.Start(), p.Current())
		if err != nil {
			t.Fatalf("EnergyDistance: %v", err)
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d (k=%d, n=%d): incremental %v != naive %v", trial, k, n, got, want)
		}
	}
}

func TestIncrementalEnergyAfterReset(t *testing.T) {
	rng := xrand.NewStream(12)
	p := mustPair(t, 8, 3)
	appendN(t, p, cloud(rng, 20, 0, 0, 0, 1))
	p.Reset()
	appendN(t, p, cloud(rng, 12, 5, 5, 5, 1))
	got, err := p.Energy()
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	want, err := stats.EnergyDistance(p.Start(), p.Current())
	if err != nil {
		t.Fatalf("EnergyDistance: %v", err)
	}
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("after reset: incremental %v != naive %v", got, want)
	}
}

func TestEnergyStationaryVsShifted(t *testing.T) {
	rng := xrand.NewStream(13)
	// Stationary stream: energy stays small.
	p := mustPair(t, 32, 3)
	appendN(t, p, cloud(rng, 200, 50, 50, 50, 1))
	stationary, err := p.Energy()
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	// Shifted stream: fill at one location, slide in points 40 ms away.
	q := mustPair(t, 32, 3)
	appendN(t, q, cloud(rng, 32, 50, 50, 50, 1))
	appendN(t, q, cloud(rng, 32, 90, 50, 50, 1))
	shifted, err := q.Energy()
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	if shifted < 10*stationary {
		t.Fatalf("shifted energy %v not clearly above stationary %v", shifted, stationary)
	}
}

// TestEnergyDetector: the energy statistic against the paper's tau = 8
// at window 32 — undefined before the windows fill, below tau on a
// stationary stream, far above it after a 70 ms shift.
func TestEnergyDetector(t *testing.T) {
	rng := xrand.NewStream(14)
	const tau = 8
	p := mustPair(t, 32, 3)
	if _, err := p.Energy(); err == nil {
		t.Fatal("empty pair: Energy defined")
	}
	appendN(t, p, cloud(rng, 64, 50, 50, 50, 1))
	e, err := p.Energy()
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	if e > tau {
		t.Fatalf("stationary stream: energy %v > %v", e, tau)
	}
	appendN(t, p, cloud(rng, 32, 120, 50, 50, 1))
	if e, err = p.Energy(); err != nil {
		t.Fatalf("Energy: %v", err)
	}
	if !(e > tau) {
		t.Fatalf("70 ms shift: energy %v, want > %v", e, tau)
	}
}

// relative reads p.Relative, failing the test on an error.
func relative(t *testing.T, p *Pair, neighbor vec.Vector) float64 {
	t.Helper()
	r, err := p.Relative(neighbor)
	if err != nil {
		t.Fatalf("Relative: %v", err)
	}
	return r
}

func TestRelativeDetector(t *testing.T) {
	rng := xrand.NewStream(15)
	const epsilon = 0.3
	p := mustPair(t, 32, 3)
	appendN(t, p, cloud(rng, 64, 50, 50, 50, 0.5))
	neighbor := vec.New(80, 50, 50) // ~30 ms away

	if r := relative(t, p, neighbor); r > epsilon {
		t.Fatalf("stationary stream: ratio %v > %v", r, epsilon)
	}
	// Move the node by ~20 ms: 20/30 = 0.67 > 0.3.
	appendN(t, p, cloud(rng, 32, 70, 50, 50, 0.5))
	if r := relative(t, p, neighbor); !(r > epsilon) {
		t.Fatalf("20 ms move with 30 ms neighbor: ratio %v, want > %v", r, epsilon)
	}
	if _, err := p.Relative(vec.New(80, 50)); err == nil {
		t.Fatal("2-dim neighbor accepted by a 3-dim pair")
	}
	if _, err := mustPair(t, 32, 3).Relative(neighbor); err == nil {
		t.Fatal("empty pair: Relative defined")
	}
}

// TestRelativeDetectorNoNeighbor: with no neighbor there is no locale to
// be relative to, so Relative yields an error, never a ratio some
// threshold could pass (RELATIVE does not ask until it knows one).
func TestRelativeDetectorNoNeighbor(t *testing.T) {
	rng := xrand.NewStream(16)
	p := mustPair(t, 8, 3)
	appendN(t, p, cloud(rng, 8, 0, 0, 0, 1))
	appendN(t, p, cloud(rng, 8, 100, 0, 0, 1))
	if r, err := p.Relative(nil); err == nil {
		t.Fatalf("no neighbor: ratio %v, want an error", r)
	}
}

func TestRelativeDetectorScaleDependence(t *testing.T) {
	// The same absolute movement must be significant with a near
	// neighbor and not with a far one.
	build := func(t *testing.T) *Pair {
		rng := xrand.NewStream(17)
		p := mustPair(t, 16, 3)
		appendN(t, p, cloud(rng, 16, 50, 50, 50, 0.1))
		appendN(t, p, cloud(rng, 16, 56, 50, 50, 0.1)) // ~6 ms move
		return p
	}
	const epsilon = 0.3
	near := vec.New(60, 50, 50) // 10 ms locale: 6/10 = 0.6
	far := vec.New(250, 50, 50) // 200 ms locale: 6/200 = 0.03
	if r := relative(t, build(t), near); !(r > epsilon) {
		t.Fatalf("6 ms move with 10 ms neighbor: ratio %v, want > %v", r, epsilon)
	}
	if r := relative(t, build(t), far); r > epsilon {
		t.Fatalf("6 ms move with 200 ms neighbor: ratio %v, want <= %v", r, epsilon)
	}
}

func TestRelativeDetectorZeroScale(t *testing.T) {
	p := mustPair(t, 2, 2)
	appendN(t, p, []vec.Vector{vec.New(1, 1), vec.New(1, 1)})
	// Neighbor exactly at the start centroid, no movement yet: 0/0.
	if r := relative(t, p, vec.New(1, 1)); r != 0 {
		t.Fatalf("no movement with zero-distance neighbor: ratio %v, want 0", r)
	}
	appendN(t, p, []vec.Vector{vec.New(5, 5), vec.New(5, 5)})
	if r := relative(t, p, vec.New(1, 1)); !math.IsInf(r, 1) {
		t.Fatalf("movement with zero-distance neighbor: ratio %v, want +Inf", r)
	}
}

func BenchmarkPairAppendIncrementalEnergy(b *testing.B) {
	p, err := NewPair(32, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(1)
	pts := cloud(rng, 1024, 50, 50, 50, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Append(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
		if p.Full() {
			if _, err := p.Energy(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkNaiveEnergyPerSlide(b *testing.B) {
	// The O(k^2) alternative, for the ablation comparison in DESIGN.md.
	p, err := NewPair(32, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(1)
	pts := cloud(rng, 1024, 50, 50, 50, 2)
	for i := 0; i < 64; i++ {
		if err := p.Append(pts[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Append(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
		if _, err := stats.EnergyDistance(p.Start(), p.Current()); err != nil {
			b.Fatal(err)
		}
	}
}
