// Command ncbench regenerates every table and figure in the paper's
// evaluation, rendering the full experiment output (the rows/series the
// paper plots) to stdout or a file, and then the headline numbers of
// the experiments it ran as one table (experiments.HeadlineTable, the
// table REPRODUCTION.md holds at quick scale). It runs
// experiments.Table, in that table's order; -list prints its ids.
//
// Usage:
//
//	ncbench                        # every experiment, quick scale
//	ncbench -scale paper           # the paper's 269-node 4-hour scale
//	ncbench -only fig13,fig14      # a subset
//	ncbench -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"netcoord/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ncbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ncbench", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "quick", "experiment scale: quick | paper")
		only      = fs.String("only", "", "comma-separated experiment ids (default: all)")
		out       = fs.String("out", "", "output file (default: stdout)")
		list      = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps := experiments.Table()
	if *list {
		for _, e := range exps {
			fmt.Println(e.ID)
		}
		return nil
	}
	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	selected := exps
	if *only != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
		selected = nil
		for _, e := range exps {
			if want[e.ID] {
				selected = append(selected, e)
				delete(want, e.ID)
			}
		}
		if len(want) > 0 {
			return fmt.Errorf("unknown experiment ids: %v (use -list)", slices.Sorted(maps.Keys(want)))
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return fmt.Errorf("create %s: %w", *out, ferr)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}

	fmt.Fprintf(w, "netcoord experiment suite — scale %s (%d nodes, %d s, %d s interval)\n\n",
		*scaleName, scale.Nodes, scale.DurationTicks, scale.IntervalTicks)
	var outcomes []experiments.Outcome
	for _, e := range selected {
		started := time.Now()
		r, rerr := e.Run(scale)
		if rerr != nil {
			return fmt.Errorf("%s: %w", e.ID, rerr)
		}
		fmt.Fprintf(w, "[%s] (%.1fs)\n%s\n", e.ID, time.Since(started).Seconds(), r.Render())
		outcomes = append(outcomes, experiments.Outcome{ID: e.ID, Result: r})
	}
	fmt.Fprintf(w, "headline numbers — scale %s\n\n%s", *scaleName, experiments.HeadlineTable(outcomes))
	return nil
}
