package main

import (
	"bufio"
	"strings"
	"testing"

	"netcoord/tools/internal/benchfmt"
)

const sample = `goos: linux
goarch: amd64
pkg: netcoord
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkStep-4         	  936750	      1287 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimulateN256   	       1	  25077210 ns/op	    918874 samples/s	 9674448 B/op	  106116 allocs/op
PASS
ok  	netcoord	2.785s
goos: linux
goarch: amd64
pkg: netcoord/internal/index
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkIndexKNN/shards=1-2 	  153170	      7938 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	netcoord/internal/index	1.402s
`

func TestParse(t *testing.T) {
	doc, err := benchfmt.Parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("got %d results", len(doc.Results))
	}
	// Each result carries the package of the pkg: header above it.
	for i, want := range []string{"netcoord", "netcoord", "netcoord/internal/index"} {
		if got := doc.Results[i].Package; got != want {
			t.Errorf("result %d (%s) package = %q, want %q", i, doc.Results[i].Name, got, want)
		}
	}
	step := doc.Results[0]
	if step.Name != "BenchmarkStep" || step.Procs != 4 || step.Iterations != 936750 {
		t.Fatalf("step = %+v", step)
	}
	if step.Metrics["ns/op"] != 1287 || step.Metrics["allocs/op"] != 0 {
		t.Fatalf("step metrics = %+v", step.Metrics)
	}
	sim := doc.Results[1]
	if sim.Procs != 1 || sim.Metrics["samples/s"] != 918874 || sim.Metrics["allocs/op"] != 106116 {
		t.Fatalf("sim = %+v", sim)
	}
	if knn := doc.Results[2]; knn.Name != "BenchmarkIndexKNN/shards=1" || knn.Procs != 2 || knn.Metrics["ns/op"] != 7938 {
		t.Fatalf("knn = %+v", knn)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := benchfmt.Parse(bufio.NewScanner(strings.NewReader("PASS\n"))); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkStep-4", "BenchmarkStep", 4},
		{"BenchmarkStep", "BenchmarkStep", 1},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 1},
	} {
		name, procs := benchfmt.SplitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Fatalf("SplitProcs(%q) = %q, %d", tc.in, name, procs)
		}
	}
}

func TestGateMetricPresence(t *testing.T) {
	// The allocation gate must not pass vacuously: a matched benchmark
	// without an allocs/op metric (no -benchmem) is a gate failure, not
	// a pass. Exercised end-to-end by the process exit in main; here we
	// pin the parse-side contract the gate relies on.
	doc, err := benchfmt.Parse(bufio.NewScanner(strings.NewReader("BenchmarkStep-4 \t 100 \t 1000 ns/op\nPASS\n")))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := doc.Results[0].Metrics["allocs/op"]; ok {
		t.Fatal("allocs/op present without -benchmem output")
	}
}
