// Command ncgen generates synthetic wide-area latency traces — the
// stand-in for the paper's PlanetLab ping trace — and prints their
// characterization (the Figure 2 histogram).
//
// Usage:
//
//	ncgen -nodes 269 -seconds 14400 -out trace.nctr
//	ncgen -nodes 64 -seconds 2400 -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"netcoord/internal/netsim"
	"netcoord/internal/sim"
	"netcoord/internal/stats"
	"netcoord/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ncgen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ncgen", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 64, "number of hosts")
		seconds  = fs.Uint64("seconds", 2400, "trace duration in seconds")
		interval = fs.Uint64("interval", 1, "per-node sampling period in seconds")
		seed     = fs.Uint64("seed", 20050502, "random seed")
		out      = fs.String("out", "", "output trace file (binary format); empty for none")
		show     = fs.Bool("stats", true, "print the Figure 2 histogram of the generated trace")
		static   = fs.Bool("static", false, "static latency matrix mode (no observation noise)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	gen, err := sim.Recipe{
		Nodes:         *nodes,
		Seed:          *seed,
		IntervalTicks: *interval,
		DurationTicks: *seconds,
		EditNetwork:   func(c *netsim.Config) { c.Static = *static },
	}.Trace()
	if err != nil {
		return err
	}

	var w *trace.Writer
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = trace.NewWriter(f)
	}

	hist, err := stats.NewHistogram(stats.Fig2Bounds())
	if err != nil {
		return err
	}
	var total, lost uint64
	for {
		s, ok := gen.Next()
		if !ok {
			break
		}
		total++
		if s.Lost {
			lost++
		} else {
			hist.Observe(s.RTT)
		}
		if w != nil {
			if err := w.Write(s); err != nil {
				return err
			}
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %d samples to %s\n", w.Count(), *out)
	}
	if *show {
		fmt.Printf("trace: %d nodes, %d s, %d samples (%d lost)\n", *nodes, *seconds, total, lost)
		fmt.Print(hist.Render())
		fmt.Printf("fraction >= 1s: %.4f%% (paper: ~0.4%%)\n", hist.FractionAtOrAbove(1000)*100)
	}
	return nil
}
