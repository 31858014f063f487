package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// fullSpec is BENCHMARK.json as the benchmark contract defines it.
type fullSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeMatchesBenchmarkJSON runs every workload at toy size, traced
// pass included, and holds what the program emits against what
// BENCHMARK.json declares: the same workloads, every end-to-end and
// per-layer metric exactly once per workload with the declared unit,
// all finite, no failed operation — and each workload's own metrics
// beside them, every one described in the README. It is the drift test
// between the JSON, the program and the README.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	var spec fullSpec
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, ncload runs %v", len(spec.Workloads), workloadNames)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in ncload", i, w.Name, workloadNames[i])
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	declared := func(specs []metricSpec, have []metricSpec, kind string) {
		if len(specs) != len(have) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, ncload emits %d", len(specs), kind, len(have))
		}
		seen := map[string]bool{}
		for i, m := range specs {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, m.Name)
			}
			seen[m.Name] = true
			if i < len(have) && m != have[i] {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in ncload", kind, i, m, have[i])
			}
		}
	}
	var e2e []metricSpec
	hasSetup := false
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.metricSpec == metricSpec{"setup_s", "s", "lower"}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s metric in s, lower is better")
	}
	declared(e2e, endToEnd, "end-to-end")
	declared(spec.PerLayer, perLayer, "per-layer")

	// The workloads' own metrics are declared in the program; the README
	// is where a reader finds what each metric means and should move.
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := func(name string) {
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("bench/README.md does not describe %s", name)
		}
	}
	seen := map[string]bool{}
	for _, m := range endToEnd {
		seen[m.Name] = true
		documented(m.Name)
	}
	for _, m := range perLayer {
		documented(m.Name)
	}
	for _, wm := range workloadMetrics {
		documented(wm.Name)
		if !nameRE.MatchString(wm.Name) || seen[wm.Name] || wm.Bound < 0 || wm.scale <= 0 || len(wm.On) == 0 {
			t.Errorf("workload metric %+v: bad or repeated name, bound, scale or workloads", wm)
		}
		seen[wm.Name] = true
		for _, on := range wm.On {
			if !slices.Contains(workloadNames, on) {
				t.Errorf("workload metric %s is on %q, which is no workload", wm.Name, on)
			}
		}
		if !slices.Contains(perLayer, metricSpec{"e2e." + wm.Name, wm.Unit, wm.Better}) {
			t.Errorf("workload metric %s has no e2e.%s in the traced pass", wm.Name, wm.Name)
		}
	}

	start := time.Now()
	p, err := newProcs(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	e := env{p: p, seed: 1, size: smokeSize}
	full := runAll(e, readEnv(true), 1, 500*time.Millisecond)
	t.Logf("smoke run took %v", time.Since(start))

	for _, name := range workloadNames {
		rep := full.Workloads[name]
		if rep == nil {
			t.Errorf("%s: no report", name)
			continue
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || rep.Error != "" {
			t.Errorf("%s: correct=%v attempted=%d failed=%d error=%q", name, rep.Correct, rep.Attempted, rep.Failed, rep.Error)
		}
		check := func(kind string, specs []metricSpec, got map[string]*metricReport) {
			if len(got) != len(specs) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", name, len(got), kind, len(specs))
			}
			for _, m := range specs {
				r := got[m.Name]
				switch {
				case r == nil:
					t.Errorf("%s: %s metric %s not emitted", name, kind, m.Name)
				case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
					t.Errorf("%s: %s = %v", name, m.Name, r.Value)
				case r.Unit != m.Unit:
					t.Errorf("%s: %s in %q, declared in %q", name, m.Name, r.Unit, m.Unit)
				case slices.Contains(endToEnd, m) && r.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, and the driver's metrics must never be 0", name, m.Name, r.Value)
				}
			}
		}
		check("end-to-end", declaredFor(name), rep.EndToEnd)
		check("per-layer", perLayer, rep.PerLayer)
	}
	if err := p.err(); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 99); got != 4 {
		t.Fatalf("p99 of four samples = %v, want the maximum", got)
	}
}
