package main

import (
	"testing"

	"netcoord"
	"netcoord/internal/heuristic"
)

func TestParseFilter(t *testing.T) {
	tests := []struct {
		spec    string
		wantNil bool
		wantErr bool
	}{
		{spec: "mp"},
		{spec: "none", wantNil: true},
		{spec: "ewma:0.1"},
		{spec: "ewma:0.02"},
		{spec: "threshold:1000"},
		{spec: "ewma:bogus", wantErr: true},
		{spec: "ewma:2", wantErr: true},
		{spec: "threshold:-5", wantErr: true},
		{spec: "threshold:x", wantErr: true},
		{spec: "unknown", wantErr: true},
		{spec: "", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			f, err := parseFilter(tt.spec)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("parseFilter(%q) succeeded", tt.spec)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFilter(%q): %v", tt.spec, err)
			}
			if tt.wantNil != (f == nil) {
				t.Fatalf("parseFilter(%q) nil=%v, want %v", tt.spec, f == nil, tt.wantNil)
			}
			if f != nil {
				// The factory must produce a working filter.
				if flt := f(); flt == nil {
					t.Fatal("factory returned nil filter")
				}
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	specs := []string{"direct", "energy", "relative", "system", "application", "centroid"}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			pf, err := parsePolicy(spec, heuristic.DefaultWindow, 0)
			if err != nil {
				t.Fatalf("parsePolicy(%q): %v", spec, err)
			}
			p, err := pf(3)
			if err != nil {
				t.Fatalf("policy factory: %v", err)
			}
			if p == nil {
				t.Fatal("nil policy")
			}
		})
	}
	if _, err := parsePolicy("bogus", 32, 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestParsePolicyThresholdOverride(t *testing.T) {
	pf, err := parsePolicy("energy", 16, 42)
	if err != nil {
		t.Fatalf("parsePolicy: %v", err)
	}
	if _, err := pf(3); err != nil {
		t.Fatalf("factory with custom threshold: %v", err)
	}
	// Invalid threshold surfaces at construction.
	pf, err = parsePolicy("energy", 16, -1)
	if err != nil {
		t.Fatalf("parsePolicy: %v", err)
	}
	if _, err := pf(3); err == nil {
		t.Fatal("negative threshold accepted by factory")
	}
}

func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-nodes", "12", "-seconds", "180", "-filter", "mp", "-policy", "energy"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-filter", "nope"}); err == nil {
		t.Fatal("bad filter accepted")
	}
	if err := run([]string{"-policy", "nope"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := run([]string{"-in", "/definitely/not/here.nctr"}); err == nil {
		t.Fatal("missing trace file accepted")
	}
	// The engine-selecting flag is gone, not ignored.
	if err := run([]string{"-parallel", "1", "-nodes", "12", "-seconds", "180"}); err == nil {
		t.Fatal("-parallel still parses")
	}
}

// TestDefaultThresholdMatchesLibrary: every -policy run with -threshold
// 0 uses the threshold netcoord resolves for the same policy. Simulate
// is bit-identical for equal configurations, so a run with the library
// default (Threshold 0) must equal one with ncsim's default spelled out
// — and differ from one with another threshold, or the check proves
// nothing.
func TestDefaultThresholdMatchesLibrary(t *testing.T) {
	for _, tc := range []struct {
		spec string
		kind netcoord.PolicyKind
	}{
		{"direct", netcoord.PolicyDirect},
		{"energy", netcoord.PolicyEnergy},
		{"relative", netcoord.PolicyRelative},
		{"system", netcoord.PolicySystem},
		{"application", netcoord.PolicyApplication},
		{"centroid", netcoord.PolicyApplicationCentroid},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			if _, err := parsePolicy(tc.spec, heuristic.DefaultWindow, 0); err != nil {
				t.Fatalf("parsePolicy(%q): %v", tc.spec, err)
			}
			run := func(threshold float64) netcoord.SimulationResult {
				t.Helper()
				res, err := netcoord.Simulate(netcoord.SimulationConfig{
					Nodes:   16,
					Seconds: 300,
					Seed:    1,
					Client:  netcoord.Config{Policy: tc.kind, Threshold: threshold},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			tau := defaultThreshold(tc.spec)
			if tc.kind == netcoord.PolicyDirect {
				if tau != 0 {
					t.Fatalf("direct has no threshold, ncsim defaults it to %v", tau)
				}
				return
			}
			lib := run(0)
			if got := run(tau); got != lib {
				t.Fatalf("ncsim's default %v: %+v; netcoord's default: %+v", tau, got, lib)
			}
			if run(tau/4) == lib {
				t.Fatalf("a quarter of the threshold changes nothing; the run cannot tell thresholds apart")
			}
		})
	}
}
