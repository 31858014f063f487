package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, bound, spread float64
		want                 string
	}{
		{0.05, 0.20, 0.10, "ok"},
		{-0.30, 0.20, 0.10, "ok"},         // better is never a regression
		{0.25, 0.20, 0.02, "regressed"},   // past the bound by more than the spread
		{0.60, 0.20, 0.30, "regressed"},   // a noisy pair still regresses on a large loss
		{0.25, 0.20, 0.10, "unresolved"},  // past the bound, within the spread of it
		{0.05, 0.20, 0.30, "unresolved"},  // fine, but too noisy to show the bound is met
		{-0.30, 0.20, 0.30, "unresolved"}, // likewise when it looks better
		{0.20, 0.20, 0.00, "ok"},          // the bound itself is allowed
		{0.2001, 0.20, 0.00, "regressed"},
	} {
		if got := verdict(c.worse, c.bound, c.spread); got != c.want {
			t.Errorf("verdict(worse %v, bound %v, spread %v) = %q, want %q", c.worse, c.bound, c.spread, got, c.want)
		}
	}
}

// fakeReport is a one-workload full-shape report of sim-paper with the
// given rate and failure count; every other metric is fixed.
func fakeReport(t *testing.T, dir, name string, opsPerS float64, failed int, mutate func(*report)) string {
	t.Helper()
	m := func(v float64) *metricReport { return &metricReport{Value: v, Spread: 0.05} }
	r := &report{
		Env: envInfo{Size: "full"}, Seed: 1, Rounds: fullRounds, SliceSeconds: fullSlice.Seconds(),
		Workloads: map[string]*workloadReport{"sim-paper": {
			Correct: failed == 0, Attempted: 50, Failed: failed,
			EndToEnd: map[string]*metricReport{
				"setup_s": m(0.4), "ops_per_s": m(opsPerS), "latency_p50_ms": m(330), "latency_p90_ms": m(400),
				"sim_rel_err_p50": m(0.0474), "sim_instability_ms_s": m(7.44),
			},
		}},
	}
	if mutate != nil {
		mutate(r)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	base := fakeReport(t, dir, "base.json", 900e3, 0, nil)
	for _, c := range []struct {
		name     string
		cur      string
		code     int
		contains string // "" where nothing is judged
	}{
		{"the same file twice", base, 0, "ops_per_s"},
		{"within the bound", fakeReport(t, dir, "ok.json", 850e3, 0, nil), 0, "ok"},
		{"rate down by a third", fakeReport(t, dir, "slow.json", 600e3, 0, nil), 1, "regressed"},
		{"a higher failed share", fakeReport(t, dir, "failed.json", 900e3, 1, nil), 1, "failed 1 of 50"},
		{"a deterministic result moved", fakeReport(t, dir, "moved.json", 900e3, 0, func(r *report) {
			r.Workloads["sim-paper"].EndToEnd["sim_rel_err_p50"].Value += 1e-6
		}), 1, "regressed"},
		{"another seed moves it freely", fakeReport(t, dir, "seed2.json", 900e3, 0, func(r *report) {
			r.Seed = 2
			r.Workloads["sim-paper"].EndToEnd["sim_rel_err_p50"].Value = 0.0455
		}), 0, "other seed"},
		{"a noisy pair", fakeReport(t, dir, "noisy.json", 700e3, 0, func(r *report) {
			r.Workloads["sim-paper"].EndToEnd["ops_per_s"].Spread = 0.3
		}), 0, "unresolved"},
		{"a lost workload", fakeReport(t, dir, "lost.json", 900e3, 0, func(r *report) {
			delete(r.Workloads, "sim-paper")
		}), 1, "missing from the new report"},
		{"another shape", fakeReport(t, dir, "shape.json", 900e3, 0, func(r *report) { r.Rounds = 12 }), 2, ""},
		{"another size", fakeReport(t, dir, "size.json", 900e3, 0, func(r *report) { r.Env.Size = "smoke" }), 2, ""},
		{"no such file", filepath.Join(dir, "absent.json"), 2, ""},
	} {
		var out bytes.Buffer
		code := compareReports(&out, "../../BENCHMARK.json", base, c.cur)
		if code != c.code || !strings.Contains(out.String(), c.contains) {
			t.Errorf("%s: exit %d, want %d, and output containing %q:\n%s", c.name, code, c.code, c.contains, out.String())
		}
		// Every judged row names both values and the base of its ratio.
		if strings.Contains(out.String(), "ops_per_s") && !strings.Contains(out.String(), "of 9e+05") {
			t.Errorf("%s: no ratio with its base in:\n%s", c.name, out.String())
		}
	}
}
