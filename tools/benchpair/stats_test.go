package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netcoord/tools/internal/benchfmt"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	for _, tc := range []struct {
		s    []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.25, 7},
		{[]float64{7}, 0.75, 7},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.75, 3.25},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.25, 32.5},
	} {
		if got := quantile(tc.s, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.s, tc.q, got, tc.want)
		}
	}
}

func TestSpreadSortsACopy(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := spreadOf(xs); got != (spread{Q1: 2, Median: 3, Q3: 4}) {
		t.Fatalf("spreadOf = %+v", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("spreadOf reordered its input: %v", xs)
	}
}

func TestWinsFollowTheMetricsDirection(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	head := []float64{9, 11, 10, 8}
	if got := wins(base, head, true); got != 2 {
		t.Errorf("lower-is-better wins = %d, want 2 (a tie is no win)", got)
	}
	if got := wins(base, head, false); got != 1 {
		t.Errorf("higher-is-better wins = %d, want 1", got)
	}
}

func TestVerdictNeedsNineInTenAndMoreThanTheIQR(t *testing.T) {
	// Ten per-pair changes, head/base - 1, around mid with an IQR of
	// 0.0275.
	around := func(mid float64, flip ...int) []float64 {
		c := []float64{-0.02, -0.02, -0.01, -0.01, 0, 0, 0.01, 0.02, 0.02, 0.03}
		for i := range c {
			c[i] += mid
		}
		for _, i := range flip {
			c[i] = -c[i]
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		changes []float64
		lower   bool
		want    string
	}{
		{"clear loss", around(0.1), true, "worse"},
		{"clear gain", around(-0.1), true, "better"},
		{"nine of ten", around(-0.1, 0), true, "better"},
		{"eight of ten", around(-0.1, 0, 1), true, "level"},
		{"inside the IQR", []float64{-0.01, -0.01, -0.01, -0.02, -0.02, -0.05, -0.06, -0.07, -0.08, -0.09}, true, "level"},
		{"a rate that rose", around(0.1), false, "better"},
		{"a rate that fell", around(-0.1), false, "worse"},
		{"ties win nothing", make([]float64, 10), true, "level"},
	} {
		if got := verdict(tc.changes, tc.lower); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestVerdictSeesALossTheBasesSpreadHides: BenchmarkIndexKNN at -cpu 2
// from pairs/arena-ids.json lost all ten pairs by a median 12 %, inside
// the base's IQR of 13 % because the box drifted between pairs, not
// within them. Judged pair by pair it is worse.
func TestVerdictSeesALossTheBasesSpreadHides(t *testing.T) {
	base := []float64{6344, 6139, 6040, 5091, 5769, 6657, 7069, 7005, 6541, 8545}
	head := []float64{7337, 6621, 6207, 6289, 6579, 8005, 7184, 7282, 7936, 9979}
	if got := verdict(changes(base, head), true); got != "worse" {
		t.Fatalf("verdict = %s, want worse", got)
	}
	// Every pair one way but by changes of -1 % to -40 %: the median
	// gap is smaller than the pairs' own spread, and stays level.
	noisy := []float64{-0.01, -0.02, -0.3, -0.4, -0.03, -0.35, -0.02, -0.4, -0.01, -0.38}
	if got := verdict(noisy, true); got != "level" {
		t.Fatalf("one-sided sub-noise gap: verdict = %s, want level", got)
	}
}

func TestChangesFallBackToDifferencesOnAZeroBase(t *testing.T) {
	if got := changes([]float64{100, 200}, []float64{110, 180}); math.Abs(got[0]-0.1) > 1e-12 || math.Abs(got[1]+0.1) > 1e-12 {
		t.Errorf("relative changes = %v, want [0.1 -0.1]", got)
	}
	got := changes([]float64{0, 2}, []float64{1, 2})
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("changes over a zero base = %v, want [1 0]", got)
	}
	if v := verdict(changes(make([]float64, 10), []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}), true); v != "worse" {
		t.Errorf("0 -> 1 allocs/op in every pair: verdict = %s, want worse", v)
	}
}

func TestSummarizePairsValuesByPair(t *testing.T) {
	res := func(name string, procs int, ns, rate float64) []benchfmt.Result {
		return []benchfmt.Result{{Name: name, Procs: procs, Metrics: map[string]float64{"ns/op": ns, "entries/s": rate}}}
	}
	var runs []run
	for p := 0; p < 10; p++ {
		drift := float64(p) * 100 // the box slows down run by run; pairs see it on both sides
		runs = append(runs,
			run{Pair: p, Side: sideBase, Package: ".", Results: res("BenchmarkX", 2, 1000+drift, 50)},
			run{Pair: p, Side: sideHead, Package: ".", Results: res("BenchmarkX", 2, 950+drift, 60)})
	}
	// A pair whose head run is missing is not counted.
	runs = append(runs, run{Pair: 10, Side: sideBase, Package: ".", Results: res("BenchmarkX", 2, 1, 1)})
	got, err := summarize(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d rows, want 2: %+v", len(got), got)
	}
	rate, ns := got[0], got[1]
	if rate.Metric != "entries/s" || rate.Better != "higher" || rate.Wins != 10 || rate.N != 10 || rate.Verdict != "better" {
		t.Errorf("rate row = %+v", rate)
	}
	if ns.Metric != "ns/op" || ns.Better != "lower" || ns.Wins != 10 || ns.N != 10 {
		t.Errorf("ns row = %+v", ns)
	}
	// Every pair won by 50 ns. The drift gives the base an IQR of
	// 450 ns, but it falls on both runs of a pair alike, so the
	// per-pair changes (-2.6 % to -5 %) are tight: better.
	if ns.Verdict != "better" || ns.Base.Median != 1450 || ns.Head.Median != 1400 {
		t.Errorf("ns row = %+v, want better at medians 1450 and 1400", ns)
	}
	if ns.Change.Q3 >= 0 || ns.Change.Q1 < -0.05 {
		t.Errorf("per-pair changes = %+v, want all within [-5 %%, 0)", ns.Change)
	}
	if math.Abs(ns.Delta-(1400.0/1450-1)) > 1e-12 {
		t.Errorf("delta = %v", ns.Delta)
	}
}

// TestSummarizeSplitsWinsByOrder: on a box where the second run of a
// pair is the faster one, whichever side it is, the change wins half
// the pairs and the verdict is level — and the split says why: it won
// none of the pairs it ran first.
func TestSummarizeSplitsWinsByOrder(t *testing.T) {
	var runs []run
	for p := 0; p < 10; p++ {
		headFirst := p%2 == 1 // as benchpair alternates
		first, second := 1000.0, 900.0
		baseNs, headNs := first, second
		if headFirst {
			baseNs, headNs = second, first
		}
		runs = append(runs,
			run{Pair: p, Side: sideBase, First: !headFirst, Package: ".", Results: []benchfmt.Result{{Name: "BenchmarkX", Procs: 1, Metrics: map[string]float64{"ns/op": baseNs}}}},
			run{Pair: p, Side: sideHead, First: headFirst, Package: ".", Results: []benchfmt.Result{{Name: "BenchmarkX", Procs: 1, Metrics: map[string]float64{"ns/op": headNs}}}})
	}
	got, err := summarize(runs)
	if err != nil || len(got) != 1 {
		t.Fatalf("summarize = %+v, %v; want one row", got, err)
	}
	if r := got[0]; r.Wins != 5 || r.N != 10 || r.HeadFirstWins != 0 || r.HeadFirstN != 5 || r.Verdict != "level" {
		t.Fatalf("row = %+v; want 5 of 10 wins, 0 of the 5 the change ran first, level", r)
	}
}

func TestSummarizeRefusesABenchmarkRunOnOneSide(t *testing.T) {
	res := func(name string, metrics ...string) benchfmt.Result {
		r := benchfmt.Result{Name: name, Procs: 1, Metrics: map[string]float64{}}
		for _, m := range metrics {
			r.Metrics[m] = 1
		}
		return r
	}
	var runs []run
	for p := 0; p < 3; p++ {
		runs = append(runs,
			run{Pair: p, Side: sideBase, Package: "./x", Results: []benchfmt.Result{res("BenchmarkOld", "ns/op")}},
			run{Pair: p, Side: sideHead, Package: "./x", Results: []benchfmt.Result{res("BenchmarkOld", "ns/op", "hits/op")}})
	}
	// A metric the change adds to a paired benchmark has nothing to
	// pair with, and is no error.
	got, err := summarize(runs)
	if err != nil || len(got) != 1 || got[0].Metric != "ns/op" {
		t.Fatalf("summarize = %+v, %v; want the ns/op row alone", got, err)
	}
	runs = append(runs, run{Pair: 3, Side: sideHead, Package: "./x", Results: []benchfmt.Result{res("BenchmarkNew", "ns/op")}})
	got, err = summarize(runs)
	if err == nil {
		t.Fatalf("summarize paired a head-only benchmark: %+v", got)
	}
	if want := "./x BenchmarkNew-1 ran on the head side only"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if strings.Contains(err.Error(), "BenchmarkOld") {
		t.Fatalf("error %q names the paired benchmark", err)
	}
}

func TestCopyMissingTestsKeepsTheBasesFiles(t *testing.T) {
	head, base := t.TempDir(), t.TempDir()
	write := func(dir, name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(head, "old_test.go", "head")
	write(head, "new_test.go", "head")
	write(head, "code.go", "head")
	write(base, "old_test.go", "base")
	if err := copyMissingTests(head, base); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"old_test.go": "base", "new_test.go": "head"} {
		if got, err := os.ReadFile(filepath.Join(base, name)); err != nil || string(got) != want {
			t.Errorf("base %s = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := os.Stat(filepath.Join(base, "code.go")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("copied a non-test file: %v", err)
	}
}
