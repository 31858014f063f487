package window

import (
	"math"
	"testing"

	"netcoord/internal/vec"
	"netcoord/internal/xrand"
)

func TestRankSumDetectorValidation(t *testing.T) {
	if _, err := NewRankSumDetector(0); err == nil {
		t.Fatal("z=0 accepted")
	}
	if _, err := NewRankSumDetector(-1); err == nil {
		t.Fatal("z<0 accepted")
	}
	if _, err := NewRankSumDetector(math.NaN()); err == nil {
		t.Fatal("z=NaN accepted")
	}
}

func TestRankSumDetectorNotFull(t *testing.T) {
	det, err := NewRankSumDetector(1.96)
	if err != nil {
		t.Fatalf("NewRankSumDetector: %v", err)
	}
	p := mustPair(t, 8, 3)
	if fired, err := det.Diverged(p); err != nil || fired {
		t.Fatalf("empty pair: fired=%v err=%v", fired, err)
	}
}

func TestRankSumDetectorStationaryQuiet(t *testing.T) {
	rng := xrand.NewStream(21)
	det, err := NewRankSumDetector(2.5)
	if err != nil {
		t.Fatalf("NewRankSumDetector: %v", err)
	}
	p := mustPair(t, 32, 3)
	appendN(t, p, cloud(rng, 200, 50, 50, 50, 1))
	fired, err := det.Diverged(p)
	if err != nil {
		t.Fatalf("Diverged: %v", err)
	}
	if fired {
		t.Fatal("rank-sum fired on a stationary stream")
	}
}

func TestRankSumDetectorCatchesRadialShift(t *testing.T) {
	// A shift away from the start centroid changes the projected
	// distances: the 1-D test sees it.
	rng := xrand.NewStream(22)
	det, err := NewRankSumDetector(1.96)
	if err != nil {
		t.Fatalf("NewRankSumDetector: %v", err)
	}
	p := mustPair(t, 32, 3)
	appendN(t, p, cloud(rng, 32, 50, 50, 50, 1))
	appendN(t, p, cloud(rng, 32, 90, 50, 50, 1))
	fired, err := det.Diverged(p)
	if err != nil {
		t.Fatalf("Diverged: %v", err)
	}
	if !fired {
		t.Fatal("rank-sum missed a 40 ms radial shift")
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
	rs, err := NewRankSumDetector(1.96)
	if err != nil {
		t.Fatalf("NewRankSumDetector: %v", err)
	}
	en, err := NewEnergyDetector(8)
	if err != nil {
		t.Fatalf("NewEnergyDetector: %v", err)
	}
	const radius = 30.0
	p := mustPair(t, 32, 3)
	// Start window: a ring of radius 30 around (50, 50, 0).
	for i := 0; i < 32; i++ {
		theta := 2 * math.Pi * float64(i) / 32
		p.appendForTest(t, vec.New(
			50+radius*math.Cos(theta)+rng.Normal(0, 0.2),
			50+radius*math.Sin(theta)+rng.Normal(0, 0.2),
			0))
	}
	// Current window: collapsed onto one spot of the same ring.
	for i := 0; i < 32; i++ {
		p.appendForTest(t, vec.New(50+radius+rng.Normal(0, 0.2), 50+rng.Normal(0, 0.2), 0))
	}
	rsFired, err := rs.Diverged(p)
	if err != nil {
		t.Fatalf("rank-sum Diverged: %v", err)
	}
	enFired, err := en.Diverged(p)
	if err != nil {
		t.Fatalf("energy Diverged: %v", err)
	}
	if rsFired {
		t.Fatal("rank-sum detected the equal-radius change; the blind spot should exist")
	}
	if !enFired {
		t.Fatal("energy missed a ring-collapse distributional change")
	}
}

// appendForTest is a test helper with error checking.
func (p *Pair) appendForTest(t *testing.T, v vec.Vector) {
	t.Helper()
	if err := p.Append(v); err != nil {
		t.Fatalf("Append: %v", err)
	}
}
