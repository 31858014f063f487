package sim

import (
	"testing"

	"netcoord/internal/trace"
)

// TestRecipeReplayEqualsRun: replaying a recipe's own trace from a
// recording (what ncsim -in does with an ncgen file) is the run itself,
// bit for bit.
func TestRecipeReplayEqualsRun(t *testing.T) {
	r := Recipe{Nodes: 8, Seed: 3, IntervalTicks: 2, DurationTicks: 240, JoinSpreadTicks: 60}
	gen, err := r.Trace()
	if err != nil {
		t.Fatal(err)
	}
	recorded := trace.Collect(gen, 0)
	run, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := r.Replay(trace.NewSliceSource(recorded))
	if err != nil {
		t.Fatal(err)
	}
	if run.Samples() != uint64(len(recorded)) || replay.Samples() != run.Samples() {
		t.Fatalf("samples: run %d, replay %d, recorded %d", run.Samples(), replay.Samples(), len(recorded))
	}
	runSys, runApp, err := run.Summarize(120, 240)
	if err != nil {
		t.Fatal(err)
	}
	repSys, repApp, err := replay.Summarize(120, 240)
	if err != nil {
		t.Fatal(err)
	}
	if runSys != repSys || runApp != repApp {
		t.Fatalf("run %+v / %+v, replay %+v / %+v", runSys, runApp, repSys, repApp)
	}
}

// TestRecipeValidatesMeasuredRunsOnly: Run and Replay refuse a run too
// small to measure, before building it; Start, which Figure 6 steps a
// 3-node cluster with, does not.
func TestRecipeValidatesMeasuredRunsOnly(t *testing.T) {
	for _, r := range []Recipe{
		{Nodes: 3, IntervalTicks: 1, DurationTicks: 600},
		{Nodes: 8, IntervalTicks: 1, DurationTicks: 59},
		{Nodes: 8, IntervalTicks: 0, DurationTicks: 600},
	} {
		if _, err := r.Run(); err == nil {
			t.Errorf("Run accepted %+v", r)
		}
		if _, err := r.Replay(trace.NewSliceSource(nil)); err == nil {
			t.Errorf("Replay accepted %+v", r)
		}
	}
	// A rejected recipe builds nothing: a 2000-node network and trace
	// would allocate tens of MB in thousands of allocations.
	big := Recipe{Nodes: 2000, IntervalTicks: 1, DurationTicks: 30}
	if allocs := testing.AllocsPerRun(1, func() {
		if _, err := big.Run(); err == nil {
			t.Errorf("Run accepted %+v", big)
		}
	}); allocs > 8 {
		t.Errorf("Run of a rejected recipe made %.0f allocations, want only its error's", allocs)
	}
	if _, _, err := (Recipe{Nodes: 3, IntervalTicks: 1, DurationTicks: 600}).Start(); err != nil {
		t.Fatalf("Start refused a 3-node run: %v", err)
	}
	if _, _, err := (Recipe{Nodes: 8, DurationTicks: 600}).Start(); err == nil {
		t.Fatal("Start accepted a zero interval")
	}
}
