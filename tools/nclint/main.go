// Command nclint is the project's static-analysis suite: six
// analyzers that machine-check the invariants the repository
// otherwise enforces by review — hot-path allocation-freedom,
// context-bound I/O, lock and atomic discipline, metric-name hygiene,
// sentinel-error matching, and checked durability errors.
//
// Run it over package patterns (default ./...) from the module root:
//
//	go run ./tools/nclint ./...
//
// It loads the whole build at once, so cross-package facts and the
// whole-program checks (metric kind uniqueness, README catalog
// coverage) always run. Findings are suppressed with an
// `//nc:allow(<analyzer>) <reason>` comment on the finding's line or
// the line above; the reason is mandatory.
package main

import (
	"fmt"
	"os"

	"netcoord/tools/nclint/analyzers/checkederr"
	"netcoord/tools/nclint/analyzers/ctxio"
	"netcoord/tools/nclint/analyzers/hotpath"
	"netcoord/tools/nclint/analyzers/lockdiscipline"
	"netcoord/tools/nclint/analyzers/metricnames"
	"netcoord/tools/nclint/analyzers/sentinelerr"
	"netcoord/tools/nclint/internal/nclib"
)

func analyzers() []*nclib.Analyzer {
	return []*nclib.Analyzer{
		hotpath.Analyzer,
		ctxio.Analyzer,
		lockdiscipline.Analyzer,
		metricnames.Analyzer,
		sentinelerr.Analyzer,
		checkederr.Analyzer,
	}
}

func main() {
	as := analyzers()
	args := os.Args[1:]

	if len(args) == 1 && (args[0] == "-help" || args[0] == "--help" || args[0] == "help") {
		fmt.Println("nclint: netcoord's static-analysis suite")
		fmt.Println()
		for _, a := range as {
			fmt.Printf("  %-15s %s\n", a.Name, a.Doc)
		}
		fmt.Println()
		fmt.Println("usage: go run ./tools/nclint [packages]   (defaults to ./...)")
		return
	}

	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := nclib.Load(nclib.LoadConfig{Patterns: patterns})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	diags, err := nclib.RunAnalyzers(prog, as)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
