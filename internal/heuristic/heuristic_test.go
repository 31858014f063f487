package heuristic

import (
	"errors"
	"math"
	"testing"

	"netcoord/internal/coord"
	"netcoord/internal/xrand"
)

// observeAll feeds a series of system coordinates (no neighbor info) and
// returns the number of application updates.
func observeAll(t *testing.T, p Policy, sys []coord.Coordinate) int {
	t.Helper()
	updates := 0
	for _, c := range sys {
		_, changed, err := p.Observe(Observation{Sys: c})
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if changed {
			updates++
		}
	}
	return updates
}

// noisyWalk produces a stationary coordinate stream around a center.
func noisyWalk(rng *xrand.Stream, n int, cx, cy, cz, noise float64) []coord.Coordinate {
	out := make([]coord.Coordinate, n)
	for i := range out {
		out[i] = coord.New(cx+rng.Normal(0, noise), cy+rng.Normal(0, noise), cz+rng.Normal(0, noise))
	}
	return out
}

func TestConstructorsValidate(t *testing.T) {
	tests := []struct {
		name string
		fn   func() error
	}{
		{name: "direct dim", fn: func() error { _, err := NewDirect(0); return err }},
		{name: "system dim", fn: func() error { _, err := NewSystem(0, 1); return err }},
		{name: "system tau", fn: func() error { _, err := NewSystem(3, 0); return err }},
		{name: "application dim", fn: func() error { _, err := NewApplication(0, 1); return err }},
		{name: "application tau", fn: func() error { _, err := NewApplication(3, -1); return err }},
		{name: "relative k", fn: func() error { _, err := NewRelative(3, 0, 0.3); return err }},
		{name: "relative eps", fn: func() error { _, err := NewRelative(3, 32, 0); return err }},
		{name: "energy k", fn: func() error { _, err := NewEnergy(3, 0, 8); return err }},
		{name: "energy tau", fn: func() error { _, err := NewEnergy(3, 32, 0); return err }},
		{name: "centroid k", fn: func() error { _, err := NewApplicationCentroid(3, 0, 16); return err }},
		{name: "centroid tau", fn: func() error { _, err := NewApplicationCentroid(3, 32, 0); return err }},
		// A NaN threshold compares false with everything: it passed
		// `tau <= 0` and built a policy that never fires.
		{name: "system tau NaN", fn: func() error { _, err := NewSystem(3, math.NaN()); return err }},
		{name: "application tau NaN", fn: func() error { _, err := NewApplication(3, math.NaN()); return err }},
		{name: "relative eps NaN", fn: func() error { _, err := NewRelative(3, 32, math.NaN()); return err }},
		{name: "energy tau NaN", fn: func() error { _, err := NewEnergy(3, 32, math.NaN()); return err }},
		{name: "centroid tau NaN", fn: func() error { _, err := NewApplicationCentroid(3, 32, math.NaN()); return err }},
		{name: "ranksum z NaN", fn: func() error { _, err := NewRankSum(3, 32, math.NaN()); return err }},
		// Every window policy's threshold must be positive.
		{name: "energy tau negative", fn: func() error { _, err := NewEnergy(3, 32, -1); return err }},
		{name: "relative eps negative", fn: func() error { _, err := NewRelative(3, 32, -0.3); return err }},
		{name: "ranksum z", fn: func() error { _, err := NewRankSum(3, 32, 0); return err }},
		{name: "ranksum z negative", fn: func() error { _, err := NewRankSum(3, 32, -1); return err }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.fn() == nil {
				t.Fatal("invalid construction accepted")
			}
		})
	}
}

func TestAllPoliciesAdoptFirstObservation(t *testing.T) {
	first := coord.New(10, 20, 30)
	policies := buildAll(t)
	for _, p := range policies {
		app, changed, err := p.Observe(Observation{Sys: first})
		if err != nil {
			t.Fatalf("%s: Observe: %v", p.Name(), err)
		}
		if !changed {
			t.Errorf("%s: first observation did not change app coordinate", p.Name())
		}
		if !app.Equal(first) {
			t.Errorf("%s: app = %v, want first sys %v", p.Name(), app, first)
		}
	}
}

func buildAll(t *testing.T) []Policy {
	t.Helper()
	direct, err := NewDirect(3)
	if err != nil {
		t.Fatalf("NewDirect: %v", err)
	}
	system, err := NewSystem(3, 5)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	application, err := NewApplication(3, 5)
	if err != nil {
		t.Fatalf("NewApplication: %v", err)
	}
	relative, err := NewRelative(3, 8, 0.3)
	if err != nil {
		t.Fatalf("NewRelative: %v", err)
	}
	energy, err := NewEnergy(3, 8, 8)
	if err != nil {
		t.Fatalf("NewEnergy: %v", err)
	}
	centroid, err := NewApplicationCentroid(3, 8, 5)
	if err != nil {
		t.Fatalf("NewApplicationCentroid: %v", err)
	}
	return []Policy{direct, system, application, relative, energy, centroid}
}

func TestAllPoliciesRejectWrongDimension(t *testing.T) {
	for _, p := range buildAll(t) {
		if _, _, err := p.Observe(Observation{Sys: coord.New(1, 2)}); !errors.Is(err, ErrDimension) {
			t.Errorf("%s: error = %v, want ErrDimension", p.Name(), err)
		}
	}
}

func TestAllPoliciesResetToOrigin(t *testing.T) {
	for _, p := range buildAll(t) {
		if _, _, err := p.Observe(Observation{Sys: coord.New(9, 9, 9)}); err != nil {
			t.Fatalf("%s: Observe: %v", p.Name(), err)
		}
		p.Reset()
		if !p.App().Equal(coord.Origin(3)) {
			t.Errorf("%s: App after Reset = %v", p.Name(), p.App())
		}
		// After reset, the next observation is a "first" again.
		_, changed, err := p.Observe(Observation{Sys: coord.New(1, 1, 1)})
		if err != nil {
			t.Fatalf("%s: Observe after Reset: %v", p.Name(), err)
		}
		if !changed {
			t.Errorf("%s: post-Reset first observation did not prime", p.Name())
		}
	}
}

func TestDirectFollowsEveryChange(t *testing.T) {
	p, err := NewDirect(3)
	if err != nil {
		t.Fatalf("NewDirect: %v", err)
	}
	updates := observeAll(t, p, []coord.Coordinate{
		coord.New(1, 0, 0),
		coord.New(2, 0, 0),
		coord.New(2, 0, 0), // identical: no change
		coord.New(3, 0, 0),
	})
	if updates != 3 {
		t.Fatalf("updates = %d, want 3", updates)
	}
	if !p.App().Equal(coord.New(3, 0, 0)) {
		t.Fatalf("App = %v", p.App())
	}
}

func TestSystemThreshold(t *testing.T) {
	p, err := NewSystem(3, 5)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// Jump of 10 (fires), then small steps of 1 (never fire).
	stream := []coord.Coordinate{
		coord.New(0, 0, 0),
		coord.New(10, 0, 0), // step 10 > 5: update
		coord.New(11, 0, 0), // step 1: no
		coord.New(12, 0, 0), // step 1: no
	}
	updates := observeAll(t, p, stream)
	if updates != 2 { // first + the jump
		t.Fatalf("updates = %d, want 2", updates)
	}
	if !p.App().Equal(coord.New(10, 0, 0)) {
		t.Fatalf("App = %v, want the jump target", p.App())
	}
}

func TestSystemPathologyUnboundedDrift(t *testing.T) {
	// Documents the paper's criticism: many sub-threshold steps drift
	// arbitrarily far without an update.
	p, err := NewSystem(3, 5)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	stream := make([]coord.Coordinate, 101)
	for i := range stream {
		stream[i] = coord.New(float64(i*4), 0, 0) // steps of 4 < 5
	}
	updates := observeAll(t, p, stream)
	if updates != 1 { // only the priming observation
		t.Fatalf("updates = %d, want 1", updates)
	}
	drift, err := p.App().DisplacementFrom(stream[len(stream)-1])
	if err != nil {
		t.Fatalf("DisplacementFrom: %v", err)
	}
	if drift < 300 {
		t.Fatalf("drift = %v; the pathology should accumulate hundreds of ms", drift)
	}
}

func TestApplicationBoundsDrift(t *testing.T) {
	p, err := NewApplication(3, 5)
	if err != nil {
		t.Fatalf("NewApplication: %v", err)
	}
	stream := make([]coord.Coordinate, 101)
	for i := range stream {
		stream[i] = coord.New(float64(i*4), 0, 0)
	}
	observeAll(t, p, stream)
	// Unlike SYSTEM, the app coordinate tracks within tau + one step.
	drift, err := p.App().DisplacementFrom(stream[len(stream)-1])
	if err != nil {
		t.Fatalf("DisplacementFrom: %v", err)
	}
	if drift > 9 {
		t.Fatalf("drift = %v, want <= tau + step", drift)
	}
}

func TestApplicationOscillationBelowTauIgnored(t *testing.T) {
	p, err := NewApplication(3, 5)
	if err != nil {
		t.Fatalf("NewApplication: %v", err)
	}
	stream := []coord.Coordinate{coord.New(0, 0, 0)}
	for i := 0; i < 50; i++ {
		stream = append(stream, coord.New(3, 0, 0), coord.New(0, 0, 0))
	}
	updates := observeAll(t, p, stream)
	if updates != 1 {
		t.Fatalf("updates = %d, want 1 (oscillation below tau)", updates)
	}
}

func TestRelativeStationaryQuiet(t *testing.T) {
	p, err := NewRelative(3, 16, 0.3)
	if err != nil {
		t.Fatalf("NewRelative: %v", err)
	}
	rng := xrand.NewStream(1)
	neighbor := coord.New(80, 50, 50) // 30 ms locale
	updates := 0
	for _, c := range noisyWalk(rng, 400, 50, 50, 50, 0.5) {
		_, changed, err := p.Observe(Observation{Sys: c, Neighbor: neighbor, HasNeighbor: true})
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if changed {
			updates++
		}
	}
	if updates > 1 {
		t.Fatalf("updates = %d on a stationary stream, want only the prime", updates)
	}
}

func TestRelativeDetectsShiftAndPublishesCentroid(t *testing.T) {
	p, err := NewRelative(3, 16, 0.3)
	if err != nil {
		t.Fatalf("NewRelative: %v", err)
	}
	rng := xrand.NewStream(2)
	neighbor := coord.New(80, 50, 50)
	feed := func(cs []coord.Coordinate) int {
		n := 0
		for _, c := range cs {
			_, changed, err := p.Observe(Observation{Sys: c, Neighbor: neighbor, HasNeighbor: true})
			if err != nil {
				t.Fatalf("Observe: %v", err)
			}
			if changed {
				n++
			}
		}
		return n
	}
	feed(noisyWalk(rng, 32, 50, 50, 50, 0.3))
	// The coordinate drifts gradually from 50 to 70 (Vivaldi moves in
	// bounded steps), then stabilizes. Repeated detections must walk the
	// app coordinate to the new location.
	drift := make([]coord.Coordinate, 0, 100)
	for i := 0; i < 100; i++ {
		x := 50 + 20*float64(i)/99
		drift = append(drift, coord.New(x+rng.Normal(0, 0.3), 50+rng.Normal(0, 0.3), 50+rng.Normal(0, 0.3)))
	}
	updates := feed(drift)
	updates += feed(noisyWalk(rng, 64, 70, 50, 50, 0.3))
	if updates == 0 {
		t.Fatal("relative policy missed a clear shift")
	}
	// Published value is a centroid of recent coordinates near the new
	// location, not the raw latest sample.
	if math.Abs(p.App().Vec[0]-70) > 5 {
		t.Fatalf("App x = %v, want near 70", p.App().Vec[0])
	}
}

func TestRelativeAbruptJumpPublishesMixedCentroid(t *testing.T) {
	// Documents a property of the two-window scheme: an instantaneous
	// jump (impossible for a real Vivaldi stream, which moves in bounded
	// steps) yields one detection whose published centroid mixes pre-
	// and post-jump coordinates, landing between the two locations.
	p, err := NewRelative(3, 16, 0.3)
	if err != nil {
		t.Fatalf("NewRelative: %v", err)
	}
	rng := xrand.NewStream(20)
	neighbor := coord.New(80, 50, 50)
	stream := append(noisyWalk(rng, 32, 50, 50, 50, 0.3), noisyWalk(rng, 32, 70, 50, 50, 0.3)...)
	for _, c := range stream {
		if _, _, err := p.Observe(Observation{Sys: c, Neighbor: neighbor, HasNeighbor: true}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	x := p.App().Vec[0]
	if x <= 50 || x >= 71 {
		t.Fatalf("App x = %v, want strictly between old (50) and new (70) locations", x)
	}
}

func TestRelativeWithoutNeighborNeverFires(t *testing.T) {
	p, err := NewRelative(3, 8, 0.3)
	if err != nil {
		t.Fatalf("NewRelative: %v", err)
	}
	rng := xrand.NewStream(3)
	updates := 0
	stream := append(noisyWalk(rng, 16, 0, 0, 0, 0.1), noisyWalk(rng, 16, 100, 0, 0, 0.1)...)
	for _, c := range stream {
		_, changed, err := p.Observe(Observation{Sys: c})
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if changed {
			updates++
		}
	}
	if updates != 1 {
		t.Fatalf("updates = %d without neighbor, want 1 (prime only)", updates)
	}
}

func TestEnergyStationaryQuiet(t *testing.T) {
	p, err := NewEnergy(3, 32, 8)
	if err != nil {
		t.Fatalf("NewEnergy: %v", err)
	}
	rng := xrand.NewStream(4)
	updates := observeAll(t, p, noisyWalk(rng, 500, 50, 50, 50, 0.5))
	if updates > 1 {
		t.Fatalf("updates = %d on stationary stream, want 1", updates)
	}
}

func TestEnergyDetectsShift(t *testing.T) {
	p, err := NewEnergy(3, 32, 8)
	if err != nil {
		t.Fatalf("NewEnergy: %v", err)
	}
	rng := xrand.NewStream(5)
	stream := noisyWalk(rng, 64, 50, 50, 50, 0.5)
	// Gradual drift 50 -> 90 over 200 observations, then stationary.
	for i := 0; i < 200; i++ {
		x := 50 + 40*float64(i)/199
		stream = append(stream, coord.New(x+rng.Normal(0, 0.5), 50+rng.Normal(0, 0.5), 50+rng.Normal(0, 0.5)))
	}
	stream = append(stream, noisyWalk(rng, 128, 90, 50, 50, 0.5)...)
	updates := observeAll(t, p, stream)
	if updates < 2 {
		t.Fatal("energy policy missed a 40 ms shift")
	}
	if math.Abs(p.App().Vec[0]-90) > 10 {
		t.Fatalf("App x = %v, want near 90", p.App().Vec[0])
	}
}

func TestEnergyWindowsResetAfterFiring(t *testing.T) {
	p, err := NewEnergy(3, 8, 4)
	if err != nil {
		t.Fatalf("NewEnergy: %v", err)
	}
	rng := xrand.NewStream(6)
	// Trigger one detection.
	stream := append(noisyWalk(rng, 16, 0, 0, 0, 0.2), noisyWalk(rng, 16, 50, 0, 0, 0.2)...)
	observeAll(t, p, stream)
	firstApp := p.App()
	// Stationary at the new location: after reset and refill, no
	// further updates should fire.
	updates := observeAll(t, p, noisyWalk(rng, 64, 50, 0, 0, 0.2))
	if updates != 0 {
		t.Fatalf("updates = %d after restabilizing, want 0", updates)
	}
	if !p.App().Equal(firstApp) {
		t.Fatal("app coordinate moved without a detection")
	}
}

func TestApplicationCentroidPublishesSmoothedValue(t *testing.T) {
	p, err := NewApplicationCentroid(3, 16, 5)
	if err != nil {
		t.Fatalf("NewApplicationCentroid: %v", err)
	}
	rng := xrand.NewStream(7)
	observeAll(t, p, noisyWalk(rng, 32, 0, 0, 0, 0.2))
	// Force a trigger with a big jump; published value is the window
	// centroid, which lags behind the raw jump target.
	if _, changed, err := p.Observe(Observation{Sys: coord.New(100, 0, 0)}); err != nil || !changed {
		t.Fatalf("jump not detected: changed=%v err=%v", changed, err)
	}
	x := p.App().Vec[0]
	if x < 1 || x > 50 {
		t.Fatalf("App x = %v, want a centroid between old cluster and jump", x)
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[string]bool{
		"direct": true, "system": true, "application": true,
		"relative": true, "energy": true, "application-centroid": true,
	}
	for _, p := range buildAll(t) {
		if !want[p.Name()] {
			t.Errorf("unexpected policy name %q", p.Name())
		}
		delete(want, p.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing policies: %v", want)
	}
}

// The paper's core comparison in microcosm: on a noisy but stationary
// stream, the window-based policies must yield far fewer app updates than
// Direct while keeping the app coordinate accurate.
func TestWindowPoliciesStabilizeWithoutAccuracyLoss(t *testing.T) {
	rng := xrand.NewStream(8)
	stream := noisyWalk(rng, 2000, 50, 50, 50, 1.5)
	center := coord.New(50, 50, 50)

	energy, err := NewEnergy(3, 32, 8)
	if err != nil {
		t.Fatalf("NewEnergy: %v", err)
	}
	direct, err := NewDirect(3)
	if err != nil {
		t.Fatalf("NewDirect: %v", err)
	}
	energyUpdates := observeAll(t, energy, stream)
	directUpdates := observeAll(t, direct, stream)

	if energyUpdates*20 > directUpdates {
		t.Fatalf("energy updates %d vs direct %d: want >20x suppression", energyUpdates, directUpdates)
	}
	accuracy, err := energy.App().DisplacementFrom(center)
	if err != nil {
		t.Fatalf("DisplacementFrom: %v", err)
	}
	if accuracy > 3 {
		t.Fatalf("energy app coordinate off center by %v ms", accuracy)
	}
}

func BenchmarkEnergyObserve(b *testing.B) {
	p, err := NewEnergy(3, 32, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(1)
	stream := make([]coord.Coordinate, 1024)
	for i := range stream {
		stream[i] = coord.New(rng.Normal(50, 1), rng.Normal(50, 1), rng.Normal(50, 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Observe(Observation{Sys: stream[i%len(stream)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnergyObserveRestarts is BenchmarkEnergyObserve on a stream
// that changes level every 44 observations, so the detector fires and
// both windows restart about once per 44 — the rate counted on the
// paper-scale simulation (290 345 appends, 6 630 restarts). The
// stationary stream above never fires and so never pays for a fill.
func BenchmarkEnergyObserveRestarts(b *testing.B) {
	p, err := NewEnergy(3, 32, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(1)
	stream := make([]coord.Coordinate, 44*2*12)
	for i := range stream {
		level := 50 + 30*float64(i/44%2)
		stream[i] = coord.New(rng.Normal(level, 1), rng.Normal(50, 1), rng.Normal(50, 1))
	}
	fires := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, changed, err := p.Observe(Observation{Sys: stream[i%len(stream)]})
		if err != nil {
			b.Fatal(err)
		}
		if changed {
			fires++
		}
	}
	if fires > 0 {
		b.ReportMetric(float64(b.N)/float64(fires), "obs/restart")
	}
}

func BenchmarkRelativeObserve(b *testing.B) {
	p, err := NewRelative(3, 32, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(1)
	neighbor := coord.New(80, 50, 50)
	stream := make([]coord.Coordinate, 1024)
	for i := range stream {
		stream[i] = coord.New(rng.Normal(50, 1), rng.Normal(50, 1), rng.Normal(50, 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Observe(Observation{Sys: stream[i%len(stream)], Neighbor: neighbor, HasNeighbor: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	// Every policy's per-observation path must be allocation-free: it
	// runs once per latency sample of every simulated node, and the
	// simulator's zero-alloc Step guarantee depends on it. Fire events
	// included — centroids are computed into preallocated buffers.
	build := []struct {
		name string
		mk   func() (Policy, error)
	}{
		{"direct", func() (Policy, error) { return NewDirect(3) }},
		{"system", func() (Policy, error) { return NewSystem(3, 0.5) }},
		{"application", func() (Policy, error) { return NewApplication(3, 0.5) }},
		{"relative", func() (Policy, error) { return NewRelative(3, 8, 0.05) }},
		{"energy", func() (Policy, error) { return NewEnergy(3, 8, 0.1) }},
		{"application-centroid", func() (Policy, error) { return NewApplicationCentroid(3, 8, 0.5) }},
	}
	for _, tc := range build {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.mk()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rng := xrand.NewStream(7)
			stream := make([]coord.Coordinate, 512)
			for i := range stream {
				// A drifting cloud so window detectors fire repeatedly
				// during the measurement (thresholds above are tight).
				base := float64(i) * 0.3
				stream[i] = coord.New(base+rng.Normal(0, 1), rng.Normal(50, 1), rng.Normal(50, 1))
			}
			neighbor := coord.New(70, 55, 50)
			// Warm up: prime, fill windows, and trigger at least one fire
			// so every code path has allocated its buffers.
			for i := 0; i < 128; i++ {
				if _, _, err := p.Observe(Observation{Sys: stream[i%len(stream)], Neighbor: neighbor, HasNeighbor: true}); err != nil {
					t.Fatalf("warm-up observe: %v", err)
				}
			}
			i := 128
			allocs := testing.AllocsPerRun(300, func() {
				obs := Observation{Sys: stream[i%len(stream)], Neighbor: neighbor, HasNeighbor: true}
				if _, _, err := p.Observe(obs); err != nil {
					t.Fatalf("observe: %v", err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state Observe allocated %v per run", allocs)
			}
		})
	}
}
