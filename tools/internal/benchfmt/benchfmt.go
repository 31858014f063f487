// Package benchfmt reads `go test -bench` output: the result lines,
// with the -GOMAXPROCS suffix split off each name, and the cpu and
// package headers. tools/benchjson records it as JSON; tools/benchpair
// reads every run it makes through it.
package benchfmt

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Package is the import path of the last pkg: header above the line.
	Package string `json:"package,omitempty"`
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 if absent).
	Procs int `json:"procs"`
	// Iterations is the measured iteration count.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every reported pair (ns/op, B/op,
	// allocs/op, and any custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics"`
}

// Document is one run's output: its cpu header and its result lines.
type Document struct {
	// CPU echoes the cpu: header line when present.
	CPU string `json:"cpu,omitempty"`
	// Results are the parsed benchmark lines in input order.
	Results []Result `json:"results"`
}

// Parse consumes go test -bench output. It fails on input without a
// single result line.
func Parse(sc *bufio.Scanner) (Document, error) {
	var doc Document
	var pkg string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // not a results line (e.g. a benchmark log print)
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := SplitProcs(fields[0])
		r := Result{Package: pkg, Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return doc, fmt.Errorf("bad metric value %q in %q", fields[i], line)
			}
			r.Metrics[fields[i+1]] = v
		}
		doc.Results = append(doc.Results, r)
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Results) == 0 {
		return doc, fmt.Errorf("no benchmark result lines found")
	}
	return doc, nil
}

// SplitProcs separates the -N GOMAXPROCS suffix from a benchmark name.
func SplitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}
