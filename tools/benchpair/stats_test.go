package main

import (
	"math"
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
	base := spread{Q1: 95, Median: 100, Q3: 105} // IQR 10
	for _, tc := range []struct {
		name  string
		head  spread
		wins  int
		lower bool
		want  string
	}{
		{"clear gain", spread{Median: 80}, 10, true, "better"},
		{"nine of ten", spread{Median: 80}, 9, true, "better"},
		{"eight of ten", spread{Median: 80}, 8, true, "level"},
		{"inside the IQR", spread{Median: 91}, 10, true, "level"},
		{"clear loss", spread{Median: 120}, 0, true, "worse"},
		{"one win spoils no loss", spread{Median: 120}, 1, true, "worse"},
		{"a rate that rose", spread{Median: 120}, 10, false, "better"},
		{"a rate that fell", spread{Median: 80}, 0, false, "worse"},
	} {
		if got := verdict(base, tc.head, tc.wins, 10, tc.lower); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
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
	got := summarize(runs)
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
	// Every pair won, but by 50 ns against a base IQR of 450: level.
	if ns.Verdict != "level" || ns.Base.Median != 1450 || ns.Head.Median != 1400 {
		t.Errorf("ns row = %+v, want level at medians 1450 and 1400", ns)
	}
	if math.Abs(ns.Delta-(1400.0/1450-1)) > 1e-12 {
		t.Errorf("delta = %v", ns.Delta)
	}
}
