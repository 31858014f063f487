package window

import (
	"math"
	"testing"

	"netcoord/internal/vec"
	"netcoord/internal/xrand"
)

// rankSum reads |p.RankSum()|, failing the test on an error.
func rankSum(t *testing.T, p *Pair) float64 {
	t.Helper()
	z, err := p.RankSum()
	if err != nil {
		t.Fatalf("RankSum: %v", err)
	}
	return math.Abs(z)
}

func TestRankSumDetectorNotFull(t *testing.T) {
	p := mustPair(t, 8, 3)
	if _, err := p.RankSum(); err == nil {
		t.Fatal("empty pair: RankSum defined")
	}
	appendN(t, p, cloud(xrand.NewStream(20), 7, 50, 50, 50, 1))
	if _, err := p.RankSum(); err == nil {
		t.Fatal("partly filled pair: RankSum defined")
	}
}

func TestRankSumDetectorStationaryQuiet(t *testing.T) {
	rng := xrand.NewStream(21)
	p := mustPair(t, 32, 3)
	appendN(t, p, cloud(rng, 200, 50, 50, 50, 1))
	if z := rankSum(t, p); z > 2.5 {
		t.Fatalf("stationary stream: |z| = %v > 2.5", z)
	}
}

func TestRankSumDetectorCatchesRadialShift(t *testing.T) {
	// A shift away from the start centroid changes the projected
	// distances: the 1-D test sees it.
	rng := xrand.NewStream(22)
	p := mustPair(t, 32, 3)
	appendN(t, p, cloud(rng, 32, 50, 50, 50, 1))
	appendN(t, p, cloud(rng, 32, 90, 50, 50, 1))
	if z := rankSum(t, p); !(z > 1.96) {
		t.Fatalf("40 ms radial shift: |z| = %v, want > 1.96", z)
	}
}

// The documented blind spot: if the start window is spread on a ring
// around its centroid and the current window collapses onto one point of
// that same ring, every point in both windows sits ~radius away from
// C(Ws) — the projected 1-D distributions match and rank-sum stays
// silent, while the energy statistic sees the massive distributional
// change. This is exactly why the paper needed multi-dimensional tests.
func TestRankSumDetectorBlindToEqualRadiusChange(t *testing.T) {
	rng := xrand.NewStream(23)
	const radius = 30.0
	p := mustPair(t, 32, 3)
	// Start window: a ring of radius 30 around (50, 50, 0).
	for i := 0; i < 32; i++ {
		theta := 2 * math.Pi * float64(i) / 32
		appendN(t, p, []vec.Vector{vec.New(
			50+radius*math.Cos(theta)+rng.Normal(0, 0.2),
			50+radius*math.Sin(theta)+rng.Normal(0, 0.2),
			0)})
	}
	// Current window: collapsed onto one spot of the same ring.
	for i := 0; i < 32; i++ {
		appendN(t, p, []vec.Vector{vec.New(50+radius+rng.Normal(0, 0.2), 50+rng.Normal(0, 0.2), 0)})
	}
	if z := rankSum(t, p); z > 1.96 {
		t.Fatalf("rank-sum saw the equal-radius change (|z| = %v); the blind spot should exist", z)
	}
	e, err := p.Energy()
	if err != nil {
		t.Fatalf("Energy: %v", err)
	}
	if !(e > 8) {
		t.Fatalf("energy %v missed a ring-collapse distributional change", e)
	}
}
