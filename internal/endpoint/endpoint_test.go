package endpoint

import (
	"errors"
	"math"
	"testing"

	"netcoord/internal/coord"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/vivaldi"
)

func at(x, y, z float64) coord.Coordinate {
	c := coord.Origin(3)
	c.Vec[0], c.Vec[1], c.Vec[2] = x, y, z
	return c
}

// deployed builds the paper's deployed configuration: MP(4, 25) with a
// two-sample warm-up and ENERGY(32, 8).
func deployed(t testing.TB) *Endpoint[int] {
	t.Helper()
	policy, err := heuristic.NewEnergy(3, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
	if err != nil {
		t.Fatal(err)
	}
	mp := func() filter.Filter {
		f, err := filter.NewMP(filter.DefaultMPConfig())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	e, err := New[int](vivaldi.DefaultConfig(), filter.NewBank[int](mp, 0), policy)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewDefaultsAndValidation(t *testing.T) {
	e, err := New[int](vivaldi.DefaultConfig(), filter.NewBank[int](nil, 0), nil)
	if err != nil {
		t.Fatalf("New with nil filter and policy: %v", err)
	}
	// No filter, Direct policy: the first sample is released and the
	// application coordinate follows the system coordinate.
	res, err := e.Observe(1, 30, at(10, 0, 0), 0.5)
	if err != nil || !res.Released || res.Filtered != 30 || !res.AppChanged {
		t.Fatalf("first observation: %+v, %v", res, err)
	}
	if !e.App().Equal(e.Sys()) || res.SysMoved == 0 || res.AppMoved != res.SysMoved {
		t.Fatalf("direct policy: sys %v app %v, moved %v / %v", e.Sys(), e.App(), res.SysMoved, res.AppMoved)
	}

	bad := vivaldi.DefaultConfig()
	bad.CC = 0
	if _, err := New[int](bad, filter.NewBank[int](nil, 0), nil); err == nil {
		t.Fatal("invalid Vivaldi config accepted")
	}
	two, err := heuristic.NewDirect(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New[int](vivaldi.DefaultConfig(), filter.NewBank[int](nil, 0), two); err == nil {
		t.Fatal("2-dimensional policy accepted on a 3-dimensional endpoint")
	}
}

func TestObserveReportsPredictionAndWarmup(t *testing.T) {
	e := deployed(t)
	remote := at(30, 40, 0)
	res, err := e.Observe(7, 80, remote, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != 50 {
		t.Fatalf("Predicted = %v, want the 50 ms the origin is from %v", res.Predicted, remote)
	}
	if res.Released || res.SysMoved != 0 || res.AppChanged || !e.Sys().Equal(coord.Origin(3)) {
		t.Fatalf("warming-up filter let the update through: %+v, sys %v", res, e.Sys())
	}
	if _, _, has := e.Neighbor(); has {
		t.Fatal("withheld sample elected a nearest neighbor")
	}
	res, err = e.Observe(7, 60, remote, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Released || res.Filtered != 65 || res.SysMoved == 0 {
		t.Fatalf("second sample: %+v, want released at 65, the 25th percentile of {60, 80}", res)
	}
}

func TestRefusedSampleTouchesNothing(t *testing.T) {
	nan := at(0, 0, 0)
	nan.Vec[2] = math.NaN()
	sunk := at(1, 1, 1)
	sunk.Height = -2
	refused := []struct {
		name   string
		rtt    float64
		remote coord.Coordinate
		want   error
	}{
		{"NaN rtt", math.NaN(), at(5, 5, 5), vivaldi.ErrBadSample},
		{"+Inf rtt", math.Inf(1), at(5, 5, 5), vivaldi.ErrBadSample},
		{"-Inf rtt", math.Inf(-1), at(5, 5, 5), vivaldi.ErrBadSample},
		{"zero rtt", 0, at(5, 5, 5), vivaldi.ErrBadSample},
		{"negative rtt", -5, at(5, 5, 5), vivaldi.ErrBadSample},
		{"wrong dimension", 20, coord.Origin(2), coord.ErrInvalid},
		{"NaN component", 20, nan, coord.ErrInvalid},
		{"negative height", 20, sunk, coord.ErrInvalid},
	}
	script := []float64{20, 26, 18, 23, 21}
	for _, tc := range refused {
		control, e := deployed(t), deployed(t)
		for _, x := range []*Endpoint[int]{control, e} {
			for i := 0; i < 3; i++ {
				if _, err := x.Observe(0, 20, at(9, 4, 0), 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Key 0 is the current nearest neighbor and has a full ring; key 1
		// has never been seen. Neither may learn anything from the sample.
		for _, key := range []int{0, 1} {
			if _, err := e.Observe(key, tc.rtt, tc.remote, 0.5); !errors.Is(err, tc.want) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
		}
		if !e.Sys().Equal(control.Sys()) || e.Error() != control.Error() || e.Links() != 1 {
			t.Errorf("%s: state moved: sys %v error %v links %d", tc.name, e.Sys(), e.Error(), e.Links())
		}
		if key, c, has := e.Neighbor(); !has || key != 0 || !c.Equal(at(9, 4, 0)) {
			t.Errorf("%s: nearest neighbor = %d at %v (has=%v)", tc.name, key, c, has)
		}
		// Ring contents: the filter's next outputs are the control's.
		for i, rtt := range script {
			want, werr := control.Observe(0, rtt, at(9, 4, 0), 0.5)
			got, gerr := e.Observe(0, rtt, at(9, 4, 0), 0.5)
			if werr != nil || gerr != nil {
				t.Fatalf("%s: valid observation %d: %v / %v", tc.name, i, werr, gerr)
			}
			if got.Filtered != want.Filtered || got.SysMoved != want.SysMoved || !e.Sys().Equal(control.Sys()) {
				t.Errorf("%s: valid observation %d diverged: %+v, want %+v", tc.name, i, got, want)
			}
		}
	}
}

func TestForgetClearsNearestNeighborOnlyForItsKey(t *testing.T) {
	e, err := New[int](vivaldi.DefaultConfig(), filter.NewBank[int](nil, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Forgetting key 0 — K's zero value — before anything was observed
	// must not be mistaken for forgetting a neighbor.
	e.Forget(0)
	if _, err := e.Observe(3, 15, at(15, 0, 0), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Observe(4, 90, at(90, 0, 0), 0.5); err != nil {
		t.Fatal(err)
	}
	e.Forget(4)
	if key, _, has := e.Neighbor(); !has || key != 3 || e.Links() != 1 {
		t.Fatalf("forgetting a farther peer: neighbor %d (has=%v), links %d", key, has, e.Links())
	}
	e.Forget(3)
	if _, _, has := e.Neighbor(); has || e.Links() != 0 {
		t.Fatalf("forgetting the nearest neighbor left it behind (links %d)", e.Links())
	}
	// The next peer is elected even though it is farther than the
	// departed one ever was.
	if _, err := e.Observe(4, 90, at(90, 0, 0), 0.5); err != nil {
		t.Fatal(err)
	}
	if key, _, has := e.Neighbor(); !has || key != 4 {
		t.Fatalf("after forget, neighbor = %d (has=%v), want 4", key, has)
	}
}

func TestRestoreIsAllOrNothing(t *testing.T) {
	e := deployed(t)
	for i := 0; i < 3; i++ {
		if _, err := e.Observe(1, 20, at(9, 4, 0), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	sys, app, w := e.Sys().Clone(), e.App().Clone(), e.Error()
	if err := e.Restore(at(1, 2, 3), coord.Origin(2), 0.4); err == nil {
		t.Fatal("wrong-dimension application coordinate restored")
	}
	if err := e.Restore(coord.Origin(2), at(1, 2, 3), 0.4); err == nil {
		t.Fatal("wrong-dimension system coordinate restored")
	}
	if !e.Sys().Equal(sys) || !e.App().Equal(app) || e.Error() != w {
		t.Fatal("a refused Restore changed state")
	}
	if err := e.Restore(at(1, 2, 3), at(4, 5, 6), 7); err != nil {
		t.Fatal(err)
	}
	if !e.Sys().Equal(at(1, 2, 3)) || !e.App().Equal(at(4, 5, 6)) || e.Error() != 1 {
		t.Fatalf("restored sys %v app %v error %v", e.Sys(), e.App(), e.Error())
	}
	// Filters restarted: the link warms up again.
	if res, err := e.Observe(1, 20, at(9, 4, 0), 0.5); err != nil || res.Released {
		t.Fatalf("first sample after Restore: %+v, %v", res, err)
	}
}

func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	e := deployed(t)
	remotes := []coord.Coordinate{at(30, 0, 0), at(0, 45, 0), at(-20, -20, 10)}
	rtts := []float64{31, 47, 33, 29, 52}
	step := func(i int) {
		if _, err := e.Observe(i%len(remotes), rtts[i%len(rtts)], remotes[i%len(remotes)], 0.4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // fill the rings and both ENERGY windows
		step(i)
	}
	i := 200
	if allocs := testing.AllocsPerRun(500, func() { step(i); i++ }); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call at steady state, want 0", allocs)
	}
}
