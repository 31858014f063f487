package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json -compare applies: the
// bounds of the generic end-to-end metrics.
type benchmarkSpec struct {
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one metric of two reports. worse is the share of the
// old value by which the new one is worse (negative: better), spread the
// wider of the two values' own slice-to-slice spreads. A loss is a
// regression when it exceeds the bound by more than that spread, so
// however noisy a pair is, a large enough loss is still caught. A pair is
// unresolved when noise alone could have carried it across the bound in
// either direction: it looks worse than the bound but not by more than
// the spread, or it looks fine but its spread is wider than the bound.
func verdict(worse, bound, spread float64) string {
	switch {
	case worse > bound+spread:
		return "regressed"
	case worse > bound || spread > bound:
		return "unresolved"
	}
	return "ok"
}

// compareReports judges new against old, one row per (workload, metric):
// both values, how much worse new is as a share of old (the base), the
// bound, the spread and the verdict. The generic metrics take their
// bounds from BENCHMARK.json, the workloads' own from workloadMetrics. It
// returns 1 on any regression, on a workload the new report lost and on
// a higher share of failed operations; 2 when the two reports cannot be
// compared at all.
func compareReports(w io.Writer, specPath, oldPath, newPath string) int {
	var spec benchmarkSpec
	var old, cur report
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {oldPath, &old}, {newPath, &cur}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "ncload:", err)
			return 2
		}
	}
	// The bounds hold for one shape of run; values pooled from other
	// slice counts or lengths, or taken at toy size, are other quantities.
	if old.Rounds != cur.Rounds || old.SliceSeconds != cur.SliceSeconds || old.Env.Size != cur.Env.Size {
		fmt.Fprintf(os.Stderr, "ncload: reports of different shapes cannot be compared: %s is %d × %g s at %s size, %s is %d × %g s at %s size\n",
			oldPath, old.Rounds, old.SliceSeconds, old.Env.Size, newPath, cur.Rounds, cur.SliceSeconds, cur.Env.Size)
		return 2
	}
	fmt.Fprintf(w, "old: %s (seed %d, commit %s)   new: %s (seed %d, commit %s)\n", oldPath, old.Seed, old.Env.Commit, newPath, cur.Seed, cur.Env.Commit)
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %22s %7s %8s  %s\n", "workload", "metric", "old", "new", "worse by (base: old)", "bound", "spread", "verdict")
	bad := false
	row := func(workload string, m metricSpec, bound float64, o, n *workloadReport) {
		om, nm := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
		if om == nil || nm == nil || om.Value == 0 {
			return
		}
		if bound == 0 { // deterministic for a seed
			v := "ok"
			switch {
			case old.Seed != cur.Seed:
				v = "other seed"
			case math.Abs(nm.Value-om.Value) > exactTolerance:
				v, bad = "regressed", true
			}
			fmt.Fprintf(w, "%-16s %-20s %14.9g %14.9g %22s %7s %8s  %s\n", workload, m.Name, om.Value, nm.Value, "", "exact", "", v)
			return
		}
		worse := (nm.Value - om.Value) / om.Value
		if m.Better == "higher" {
			worse = -worse
		}
		spread := max(om.Spread, nm.Spread)
		v := verdict(worse, bound, spread)
		bad = bad || v == "regressed"
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+12.2f%% of %-7.4g %6.0f%% %7.1f%%  %s\n",
			workload, m.Name, om.Value, nm.Value, worse*100, om.Value, bound*100, spread*100, v)
	}
	for _, name := range workloadNames {
		o, n := old.Workloads[name], cur.Workloads[name]
		if o == nil {
			continue
		}
		if n == nil {
			fmt.Fprintf(w, "%-16s missing from the new report  regressed\n", name)
			bad = true
			continue
		}
		for _, m := range spec.EndToEnd {
			row(name, m.metricSpec, m.Bound, o, n)
		}
		for _, wm := range workloadMetrics {
			if slices.Contains(wm.On, name) {
				row(name, wm.metricSpec, wm.Bound, o, n)
			}
		}
		oShare := float64(o.Failed) / float64(max(o.Attempted, 1))
		nShare := float64(n.Failed) / float64(max(n.Attempted, 1))
		v := "ok"
		if nShare > oShare || (o.Correct && !n.Correct) {
			v, bad = "regressed", true
		}
		fmt.Fprintf(w, "%-16s failed %d of %d (old: %d of %d), correct %v, box speed %.2f (old: %.2f)  %s\n",
			name, n.Failed, n.Attempted, o.Failed, o.Attempted, n.Correct, infoValue(n, "speed"), infoValue(o, "speed"), v)
	}
	if bad {
		return 1
	}
	return 0
}

func infoValue(r *workloadReport, name string) float64 {
	if m := r.Info[name]; m != nil {
		return m.Value
	}
	return 0
}
