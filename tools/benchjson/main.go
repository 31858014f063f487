// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, for machine-readable benchmark tracking
// (BENCH_simulate.json in CI).
//
// It can also act as an allocation gate:
//
//	go test -bench . -benchmem | benchjson -require-zero-alloc BenchmarkStep
//
// exits non-zero if any benchmark whose name starts with the given
// prefix reports more than zero allocs/op — the enforcement point for
// the simulator's allocation-free Step guarantee.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"netcoord/tools/internal/benchfmt"
)

func main() {
	requireZero := flag.String("require-zero-alloc", "", "fail if benchmarks with this name prefix report allocs/op > 0")
	flag.Parse()
	doc, err := benchfmt.Parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if *requireZero == "" {
		return
	}
	gated := 0
	for _, r := range doc.Results {
		if !strings.HasPrefix(r.Name, *requireZero) {
			continue
		}
		gated++
		allocs, ok := r.Metrics["allocs/op"]
		if !ok {
			// Without -benchmem the metric is absent; a gate that cannot
			// see allocations must fail, not pass vacuously.
			fmt.Fprintf(os.Stderr, "benchjson: %s has no allocs/op metric (was -benchmem passed?)\n", r.Name)
			os.Exit(1)
		}
		if allocs > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %s reports %v allocs/op, want 0\n", r.Name, allocs)
			os.Exit(1)
		}
	}
	if gated == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark matched gate prefix %q\n", *requireZero)
		os.Exit(1)
	}
}
