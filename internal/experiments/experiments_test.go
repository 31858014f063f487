package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"unicode"

	"netcoord/internal/golden"
	"netcoord/internal/heuristic"
	"netcoord/internal/sim"
)

// tinyScale keeps the full experiment suite runnable in CI seconds while
// preserving qualitative shapes.
func tinyScale() Scale {
	return Scale{Nodes: 24, DurationTicks: 900, IntervalTicks: 1, Seed: 20050502}
}

// checkGolden holds an experiment's whole render at tinyScale to
// testdata/<id>.golden (id as Table names it), byte for byte. The
// shape checks beside it pass across a wide range of outputs; this one
// fails on a slipped seed, a different network or a changed metric.
// Regenerate with `go test ./internal/experiments -update` and review
// the diff.
//
// It also holds r's Headlines to what BenchmarkExperiments and
// HeadlineTable rely on: at least one row, unique names without
// whitespace (ReportMetric's rule for units), finite values, and every
// paper value quoted in the render, so the two copies of what the paper
// said cannot drift apart.
func checkGolden(t *testing.T, id string, r Result) {
	t.Helper()
	render := r.Render()
	golden.Check(t, filepath.Join("testdata", id+".golden"), []byte(render))
	hs := r.Headlines()
	if len(hs) == 0 {
		t.Errorf("%s has no headline rows", id)
	}
	names := map[string]bool{}
	for _, h := range hs {
		if h.Name == "" || strings.IndexFunc(h.Name, unicode.IsSpace) >= 0 {
			t.Errorf("%s: headline name %q is empty or holds whitespace", id, h.Name)
		}
		if names[h.Name] {
			t.Errorf("%s: headline %q listed twice", id, h.Name)
		}
		names[h.Name] = true
		if math.IsNaN(h.Value) || math.IsInf(h.Value, 0) {
			t.Errorf("%s: headline %s = %v, want a finite value", id, h.Name, h.Value)
		}
		if h.Paper != "" && !strings.Contains(render, h.Paper) {
			t.Errorf("%s: headline %s quotes the paper as %q, which the render does not", id, h.Name, h.Paper)
		}
	}
}

// reproductionPreamble heads REPRODUCTION.md; it takes QuickScale's
// nodes, duration, interval and seed.
const reproductionPreamble = "# Reproduction: the paper's headline numbers\n\n" +
	"Every experiment in `internal/experiments.Table` names its headline\n" +
	"numbers in its `Headlines` method. This table lists them at QuickScale:\n" +
	"%d nodes for %d s, each node sampling every %d s, seed %d. The columns\n" +
	"are the experiment id, the number's name (its `BenchmarkExperiments`\n" +
	"metric), the paper's value where the paper quotes one, and the measured\n" +
	"value. `ncbench` prints the same table after its renders, at the scale\n" +
	"it runs.\n\n" +
	"This file is generated, and `TestReproductionFile` fails when it\n" +
	"drifts. Regenerate it with\n" +
	"`go test ./internal/experiments -run TestReproductionFile -update`.\n\n"

// TestReproductionFile holds REPRODUCTION.md, at the repository root,
// to HeadlineTable over every experiment in Table at QuickScale: the
// table `ncbench` prints after its renders.
func TestReproductionFile(t *testing.T) {
	scale := QuickScale()
	var outcomes []Outcome
	for _, e := range Table() {
		r, err := e.Run(scale)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		outcomes = append(outcomes, Outcome{ID: e.ID, Result: r})
	}
	doc := fmt.Sprintf(reproductionPreamble, scale.Nodes, scale.DurationTicks, scale.IntervalTicks, scale.Seed) +
		HeadlineTable(outcomes)
	golden.Check(t, filepath.Join("..", "..", "REPRODUCTION.md"), []byte(doc))
}

// TestMissingHeadlineRowsReadNaN: a headline looked up by row name or
// sweep parameter reads NaN when the row is missing, which the checks
// in checkGolden refuse, instead of dropping out of the list.
func TestMissingHeadlineRowsReadNaN(t *testing.T) {
	for _, r := range []Result{&Table1Result{}, &Fig08Result{}, &AblationThresholdResult{}} {
		for _, h := range r.Headlines() {
			if !math.IsNaN(h.Value) {
				t.Errorf("%T: missing row reads %s = %v, want NaN", r, h.Name, h.Value)
			}
		}
	}
}

func TestScaleValidate(t *testing.T) {
	if err := (Scale{Nodes: 2, DurationTicks: 900, IntervalTicks: 1}).Validate(); err == nil {
		t.Fatal("tiny node count accepted")
	}
	if err := (Scale{Nodes: 24, DurationTicks: 10, IntervalTicks: 1}).Validate(); err == nil {
		t.Fatal("tiny duration accepted")
	}
	if err := (Scale{Nodes: 24, DurationTicks: 900, IntervalTicks: 0}).Validate(); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := PaperScale().Validate(); err != nil {
		t.Fatalf("PaperScale invalid: %v", err)
	}
	if err := QuickScale().Validate(); err != nil {
		t.Fatalf("QuickScale invalid: %v", err)
	}
}

// TestExperimentsRefuseUnmeasurableScales: every experiment sized by
// its scale refuses one too short to measure before building anything;
// most leave the check to sim.Recipe.Run. Building this scale's
// 2000-node network and trace would take thousands of allocations.
// Figure 6 is skipped: it has its own fixed shape.
func TestExperimentsRefuseUnmeasurableScales(t *testing.T) {
	bad := Scale{Nodes: 2000, DurationTicks: 30, IntervalTicks: 1, Seed: 1}
	for _, e := range Table() {
		if e.ID == "fig6" {
			continue
		}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := e.Run(bad); err == nil {
				t.Errorf("%s accepted %+v", e.ID, bad)
			}
		})
		if allocs > 200 { // a sweep's workers and errors: about 70
			t.Errorf("%s made %.0f allocations refusing %+v", e.ID, allocs, bad)
		}
	}
}

// TestTableMatchesGoldens ties Table to testdata in both directions:
// each id is unique, has a runner and a testdata/<id>.golden, and each
// golden names an id. The goldens themselves are compared by the shape
// tests below, so this runs no experiment.
func TestTableMatchesGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[string]bool{}
	for _, f := range files {
		goldens[strings.TrimSuffix(filepath.Base(f), ".golden")] = true
	}
	ids := map[string]bool{}
	for _, e := range Table() {
		if ids[e.ID] {
			t.Errorf("id %q listed twice", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s has no runner", e.ID)
		}
		if !goldens[e.ID] {
			t.Errorf("%s has no testdata/%s.golden", e.ID, e.ID)
		}
	}
	for id := range goldens {
		if !ids[id] {
			t.Errorf("testdata/%s.golden names no experiment in Table", id)
		}
	}
}

func TestPaperScaleMatchesPaper(t *testing.T) {
	s := PaperScale()
	if s.Nodes != 269 {
		t.Fatalf("nodes = %d, want 269", s.Nodes)
	}
	if s.DurationTicks != 4*3600 {
		t.Fatalf("duration = %d, want 4 hours", s.DurationTicks)
	}
}

func TestFig02(t *testing.T) {
	r, err := Fig02RawLatencyHistogram(tinyScale())
	if err != nil {
		t.Fatalf("Fig02: %v", err)
	}
	if r.Total == 0 {
		t.Fatal("no samples")
	}
	// Calibration: a visible but small fraction above one second.
	if r.FractionAboveOneSecond < 0.001 || r.FractionAboveOneSecond > 0.02 {
		t.Fatalf("fraction >= 1s = %v, want ~0.004", r.FractionAboveOneSecond)
	}
	checkGolden(t, "fig2", r)
}

func TestFig03(t *testing.T) {
	r, err := Fig03SingleLinkDistribution(tinyScale())
	if err != nil {
		t.Fatalf("Fig03: %v", err)
	}
	if r.Max < 5*r.Median {
		t.Fatalf("max %v vs median %v: no heavy tail", r.Max, r.Median)
	}
	if r.SpikeSpread <= 0.05 || r.SpikeSpread >= 0.95 {
		t.Fatalf("spike spread %v: spikes clustered in one half", r.SpikeSpread)
	}
	if len(r.Scatter) == 0 {
		t.Fatal("no scatter points")
	}
	checkGolden(t, "fig3", r)
}

func TestFig04(t *testing.T) {
	r, err := Fig04HistorySizeSweep(tinyScale())
	if err != nil {
		t.Fatalf("Fig04: %v", err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(r.Rows))
	}
	// The paper's central finding: a short history (2..8) beats both
	// h=1 (raw last sample) and very long histories.
	if r.BestHistory < 2 || r.BestHistory > 16 {
		t.Fatalf("best history = %d, want a short window (paper: 4)", r.BestHistory)
	}
	var h1, hBest float64
	for _, row := range r.Rows {
		if row.History == 1 {
			h1 = row.Box.Median
		}
		if row.History == r.BestHistory {
			hBest = row.Box.Median
		}
	}
	if hBest >= h1 {
		t.Fatalf("best history median %v not better than h=1 %v", hBest, h1)
	}
	checkGolden(t, "fig4", r)
}

func TestFig05AndShape(t *testing.T) {
	r, err := Fig05FilterCDFs(tinyScale())
	if err != nil {
		t.Fatalf("Fig05: %v", err)
	}
	// MP must beat raw on both medians.
	if r.MP.Summary.MedianRelErr >= r.Raw.Summary.MedianRelErr {
		t.Fatalf("MP err %v >= raw %v", r.MP.Summary.MedianRelErr, r.Raw.Summary.MedianRelErr)
	}
	if r.MP.Summary.MedianInstability >= r.Raw.Summary.MedianInstability {
		t.Fatalf("MP instability %v >= raw %v", r.MP.Summary.MedianInstability, r.Raw.Summary.MedianInstability)
	}
	// The filter must trim the tail: far fewer filtered estimates above
	// one second than raw observations.
	rawTail := r.RawHist.FractionAtOrAbove(1000)
	filteredTail := r.FilteredHist.FractionAtOrAbove(1000)
	if filteredTail >= rawTail/2 {
		t.Fatalf("filtered tail %v vs raw %v: tail not trimmed", filteredTail, rawTail)
	}
	// The worst-case instability gap is the paper's headline: must be
	// large.
	if r.WorstInstabilityRatio < 3 {
		t.Fatalf("worst instability ratio %v, want >> 1", r.WorstInstabilityRatio)
	}
	checkGolden(t, "fig5", r)
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1FilterComparison(tinyScale())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(r.Rows))
	}
	byName := map[string]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	mp, none := byName["MP Filter"], byName["No Filter"]
	if mp.MedianRelErr >= none.MedianRelErr {
		t.Fatalf("MP %v >= none %v on error", mp.MedianRelErr, none.MedianRelErr)
	}
	// The paper's surprise: high-alpha EWMAs are *worse* than nothing.
	if byName["EWMA a=0.20"].MedianRelErr <= none.MedianRelErr {
		t.Fatalf("EWMA 0.20 err %v not worse than none %v", byName["EWMA a=0.20"].MedianRelErr, none.MedianRelErr)
	}
	if byName["EWMA a=0.10"].MedianRelErr <= none.MedianRelErr {
		t.Fatalf("EWMA 0.10 err %v not worse than none %v", byName["EWMA a=0.10"].MedianRelErr, none.MedianRelErr)
	}
	checkGolden(t, "table1", r)
}

func TestFig06Shape(t *testing.T) {
	r, err := Fig06ConfidenceBuilding(tinyScale())
	if err != nil {
		t.Fatalf("Fig06: %v", err)
	}
	if r.SteadyWith < 0.9 {
		t.Fatalf("confidence with building = %v, want ~1", r.SteadyWith)
	}
	if r.SteadyWithout > r.SteadyWith-0.1 {
		t.Fatalf("confidence without building = %v, want clearly below %v", r.SteadyWithout, r.SteadyWith)
	}
	checkGolden(t, "fig6", r)
}

func TestFig07Shape(t *testing.T) {
	r, err := Fig07CoordinateDrift(tinyScale())
	if err != nil {
		t.Fatalf("Fig07: %v", err)
	}
	if len(r.Trajectories) != 4 {
		t.Fatalf("%d trajectories, want 4", len(r.Trajectories))
	}
	regions := map[string]bool{}
	for _, tr := range r.Trajectories {
		regions[tr.Region] = true
		if len(tr.Positions) < 4 {
			t.Fatalf("node %d has only %d snapshots", tr.Node, len(tr.Positions))
		}
	}
	if len(regions) != 4 {
		t.Fatalf("tracked regions = %v, want all four", regions)
	}
	// Coordinates must actually drift.
	anyDrift := false
	for _, tr := range r.Trajectories {
		if tr.TotalDrift > 2 {
			anyDrift = true
		}
	}
	if !anyDrift {
		t.Fatal("no trajectory drifted despite network drift")
	}
	checkGolden(t, "fig7", r)
}

func TestFig08Shape(t *testing.T) {
	scale := tinyScale()
	r, err := Fig08ThresholdSweep(scale)
	if err != nil {
		t.Fatalf("Fig08: %v", err)
	}
	if len(r.Energy) != 9 || len(r.Relative) != 9 {
		t.Fatalf("sweep sizes %d/%d, want 9/9", len(r.Energy), len(r.Relative))
	}
	// Stability must broadly improve (instability decline) as the
	// threshold rises: compare first vs last.
	if r.Energy[len(r.Energy)-1].MedianInstability > r.Energy[0].MedianInstability {
		t.Fatalf("energy instability did not decline across thresholds: %v -> %v",
			r.Energy[0].MedianInstability, r.Energy[len(r.Energy)-1].MedianInstability)
	}
	if r.Relative[len(r.Relative)-1].MedianInstability > r.Relative[0].MedianInstability {
		t.Fatal("relative instability did not decline across thresholds")
	}
	checkGolden(t, "fig8", r)
}

func TestFig09Shape(t *testing.T) {
	r, err := Fig09WindowSizeSweep(tinyScale())
	if err != nil {
		t.Fatalf("Fig09: %v", err)
	}
	if len(r.Energy) < 4 {
		t.Fatalf("only %d energy points", len(r.Energy))
	}
	// Larger windows must cut the update rate.
	first, last := r.Energy[0], r.Energy[len(r.Energy)-1]
	if last.MeanUpdateFraction > first.MeanUpdateFraction {
		t.Fatalf("update fraction grew with window: %v -> %v", first.MeanUpdateFraction, last.MeanUpdateFraction)
	}
	checkGolden(t, "fig9", r)
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10HeuristicComparison(tinyScale())
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	// The windowless heuristics at high threshold must lose accuracy
	// dramatically compared with the window-based ones at *their*
	// highest thresholds.
	sysHigh := r.System[len(r.System)-1].MedianRelErr
	energyHigh := r.Energy[len(r.Energy)-1].MedianRelErr
	if sysHigh <= energyHigh {
		t.Fatalf("SYSTEM at tau=256 (%v) should be less accurate than ENERGY at tau=256 (%v)", sysHigh, energyHigh)
	}
	checkGolden(t, "fig10", r)
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11AppLevelCDFs(tinyScale())
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	// Both app-level streams must be far more stable than the raw MP
	// stream at comparable accuracy.
	if r.EnergyMP.Summary.MedianInstability >= r.RawMP.Summary.MedianInstability {
		t.Fatal("ENERGY app stream not more stable than raw MP")
	}
	if r.RelativeMP.Summary.MedianInstability >= r.RawMP.Summary.MedianInstability {
		t.Fatal("RELATIVE app stream not more stable than raw MP")
	}
	if r.EnergyMP.Summary.MedianRelErr > 2*r.RawMP.Summary.MedianRelErr+0.05 {
		t.Fatalf("ENERGY accuracy collapsed: %v vs raw %v", r.EnergyMP.Summary.MedianRelErr, r.RawMP.Summary.MedianRelErr)
	}
	checkGolden(t, "fig11", r)
}

func TestFig12Shape(t *testing.T) {
	r, err := Fig12ApplicationCentroid(tinyScale())
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(r.Points) != 9 {
		t.Fatalf("%d points, want 9", len(r.Points))
	}
	// The hybrid trades: high threshold must cost accuracy.
	if r.Points[len(r.Points)-1].MedianRelErr <= r.Points[0].MedianRelErr {
		t.Fatalf("APPLICATION/CENTROID accuracy did not degrade with threshold: %v -> %v",
			r.Points[0].MedianRelErr, r.Points[len(r.Points)-1].MedianRelErr)
	}
	checkGolden(t, "fig12", r)
}

func TestFig13Shape(t *testing.T) {
	r, err := Fig13PlanetLabComparison(tinyScale())
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	// Headline improvements must be positive and large.
	if r.ErrImprovement < 0.2 {
		t.Fatalf("error improvement %v, want substantial (paper: 0.54)", r.ErrImprovement)
	}
	if r.InstabilityImprovement < 0.5 {
		t.Fatalf("instability improvement %v, want large (paper: 0.96)", r.InstabilityImprovement)
	}
	// Filtered nodes must be much less likely to have p95 error > 1.
	if r.FracAboveOneMP >= r.FracAboveOneRaw {
		t.Fatalf("p95>1 fractions: MP %v vs raw %v", r.FracAboveOneMP, r.FracAboveOneRaw)
	}
	checkGolden(t, "fig13", r)
}

func TestFig14Shape(t *testing.T) {
	r, err := Fig14ConvergenceTimeline(tinyScale())
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	ivs := r.Intervals["ENERGY + MP filter"]
	if len(ivs) < 3 {
		t.Fatalf("only %d intervals", len(ivs))
	}
	// Convergence: the final interval must beat the first.
	if ivs[len(ivs)-1].P95RelErr >= ivs[0].P95RelErr {
		t.Fatalf("no convergence: %v -> %v", ivs[0].P95RelErr, ivs[len(ivs)-1].P95RelErr)
	}
	checkGolden(t, "fig14", r)
}

func TestAblationStaticMatrix(t *testing.T) {
	r, err := AblationStaticMatrix(tinyScale())
	if err != nil {
		t.Fatalf("AblationStaticMatrix: %v", err)
	}
	if r.Static.MedianRelErr >= r.Live.MedianRelErr {
		t.Fatalf("static err %v >= live %v", r.Static.MedianRelErr, r.Live.MedianRelErr)
	}
	if r.Static.MedianInstability >= r.Live.MedianInstability {
		t.Fatalf("static instability %v >= live %v", r.Static.MedianInstability, r.Live.MedianInstability)
	}
	checkGolden(t, "a1", r)
}

func TestAblationThreshold(t *testing.T) {
	r, err := AblationThresholdFilter(tinyScale())
	if err != nil {
		t.Fatalf("AblationThresholdFilter: %v", err)
	}
	byName := map[string]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	// MP must beat every fixed cutoff on accuracy.
	mp := byName["MP Filter"].MedianRelErr
	for _, name := range []string{"Cutoff 1000ms", "Cutoff 500ms", "Cutoff 250ms"} {
		if byName[name].MedianRelErr <= mp {
			t.Fatalf("%s (%v) beat MP (%v)", name, byName[name].MedianRelErr, mp)
		}
	}
	checkGolden(t, "a2", r)
}

func TestAblationDamping(t *testing.T) {
	r, err := AblationDampedVivaldi(tinyScale())
	if err != nil {
		t.Fatalf("AblationDampedVivaldi: %v", err)
	}
	// After the route change, the damped system must be worse relative
	// to its own before-state than the undamped one.
	dampedDegradation := r.DampedAfter / r.DampedBefore
	mpDegradation := r.MPAfter / r.MPBefore
	if dampedDegradation <= mpDegradation {
		t.Fatalf("damped degradation %v <= undamped %v: damping should block adaptation",
			dampedDegradation, mpDegradation)
	}
	checkGolden(t, "a3", r)
}

func TestAblationWarmup(t *testing.T) {
	r, err := AblationFilterWarmup(tinyScale())
	if err != nil {
		t.Fatalf("AblationFilterWarmup: %v", err)
	}
	if r.WarmupEarly >= r.ImmediateEarly {
		t.Fatalf("warm-up early instability %v >= immediate %v", r.WarmupEarly, r.ImmediateEarly)
	}
	// Steady-state accuracy must be essentially unchanged.
	if r.WarmupSteadyErr > r.ImmediateSteadyErr*1.25+0.02 {
		t.Fatalf("warm-up cost steady accuracy: %v vs %v", r.WarmupSteadyErr, r.ImmediateSteadyErr)
	}
	checkGolden(t, "a4", r)
}

func TestExtensionDetectorComparison(t *testing.T) {
	r, err := ExtensionDetectorComparison(tinyScale())
	if err != nil {
		t.Fatalf("ExtensionDetectorComparison: %v", err)
	}
	// All three detectors must produce usable accuracy; the rank-sum
	// baseline is expected to be competitive on this (radial-drift
	// dominated) workload.
	for name, s := range map[string]float64{
		"energy":   r.Energy.MedianRelErr,
		"relative": r.Relative.MedianRelErr,
		"ranksum":  r.RankSum.MedianRelErr,
	} {
		if s <= 0 || s > 1 {
			t.Fatalf("%s median rel err = %v, want sane accuracy", name, s)
		}
	}
	checkGolden(t, "e1", r)
}

func TestExtensionChurnRobustness(t *testing.T) {
	r, err := ExtensionChurnRobustness(tinyScale())
	if err != nil {
		t.Fatalf("ExtensionChurnRobustness: %v", err)
	}
	// The warm-up must cut tail instability under churn...
	if r.WarmupTail >= r.ImmediateTail {
		t.Fatalf("warm-up tail %v >= immediate %v", r.WarmupTail, r.ImmediateTail)
	}
	// ...at only a small accuracy cost.
	if r.WarmupErr > r.ImmediateErr*1.3+0.02 {
		t.Fatalf("warm-up final err %v vs immediate %v: cost too large", r.WarmupErr, r.ImmediateErr)
	}
	checkGolden(t, "e2", r)
}

// TestSweepWorkersMatchSequential pins the sweep grid's determinism
// contract: running the Figure 8 parameter points three at a time must
// reproduce the one-at-a-time sweep's points bit for bit, in the same
// positional order.
func TestSweepWorkersMatchSequential(t *testing.T) {
	scale := tinyScale()
	scale.DurationTicks = 300
	build := func(tau float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, tau)
		}
	}
	params := []float64{1, 4, 8, 32}

	seq, err := sweepWith(1, scale, params, build)
	if err != nil {
		t.Fatalf("one-worker sweep: %v", err)
	}
	par, err := sweepWith(3, scale, params, build)
	if err != nil {
		t.Fatalf("three-worker sweep: %v", err)
	}
	if len(seq) != len(params) || len(par) != len(params) {
		t.Fatalf("sweep lengths %d and %d, want %d", len(seq), len(par), len(params))
	}
	for i := range seq {
		if seq[i].Param != params[i] {
			t.Fatalf("point %d is for param %v, want %v", i, seq[i].Param, params[i])
		}
		if seq[i] != par[i] {
			t.Fatalf("point %d: one worker %+v != three workers %+v", i, seq[i], par[i])
		}
	}
}
