// Command ncsim replays a latency trace — from a file written by ncgen
// or generated on the fly — through the trace-driven simulator with a
// chosen filter and application-update policy, and prints the paper's
// accuracy/stability metrics for both coordinate streams.
//
// Usage:
//
//	ncsim -nodes 64 -seconds 2400 -filter mp -policy energy
//	ncsim -in trace.nctr -nodes 269 -filter none -policy direct
//	ncsim -nodes 64 -filter ewma:0.10 -policy relative -threshold 0.3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/sim"
	"netcoord/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ncsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ncsim", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input trace file; empty generates on the fly")
		nodes      = fs.Int("nodes", 64, "number of hosts (must cover the trace's node ids)")
		seconds    = fs.Uint64("seconds", 2400, "generated trace duration (with -in, only sizes the metric storage)")
		interval   = fs.Uint64("interval", 1, "generated per-node sampling period")
		seed       = fs.Uint64("seed", 20050502, "random seed")
		filterSpec = fs.String("filter", "mp", "filter: mp | none | ewma:<alpha> | threshold:<ms>")
		policySpec = fs.String("policy", "energy", "policy: direct | energy | relative | system | application | centroid")
		window     = fs.Int("window", heuristic.DefaultWindow, "change-detection window size")
		threshold  = fs.Float64("threshold", 0, "policy threshold (0 = paper default for the policy)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	factory, err := parseFilter(*filterSpec)
	if err != nil {
		return err
	}
	policy, err := parsePolicy(*policySpec, *window, *threshold)
	if err != nil {
		return err
	}

	recipe := sim.Recipe{
		Nodes:         *nodes,
		Seed:          *seed,
		IntervalTicks: *interval,
		DurationTicks: *seconds,
		Filter:        factory,
		Policy:        policy,
	}
	var runner *sim.Runner
	duration := *seconds
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("open %s: %w", *in, err)
		}
		defer func() {
			_ = f.Close() // read-only
		}()
		r := trace.NewReader(f)
		if runner, err = recipe.Replay(r); err != nil {
			return err
		}
		if err := r.Err(); err != nil {
			return err
		}
		duration = runner.LastTick()
	} else if runner, err = recipe.Run(); err != nil {
		return err
	}
	from := duration / 2

	fmt.Printf("processed %d samples (%d lost), last tick %d\n", runner.Samples(), runner.Lost(), runner.LastTick())
	fmt.Printf("measurement window: [%d, %d] (second half, per the paper)\n\n", from, duration)

	sys, app, err := runner.Summarize(from, duration)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %-14s %-14s %-14s %-12s\n", "stream", "med rel err", "p95 rel err", "instability", "updates/s")
	fmt.Printf("%-22s %-14.4f %-14.4f %-14.2f %-12.3f\n", "system-level (cs)",
		sys.MedianRelErr, sys.P95RelErrMedian, sys.MedianInstability, sys.MeanUpdateFraction)
	fmt.Printf("%-22s %-14.4f %-14.4f %-14.2f %-12.3f\n", "application-level (ca)",
		app.MedianRelErr, app.P95RelErrMedian, app.MedianInstability, app.MeanUpdateFraction)
	return nil
}

// parseFilter builds a filter factory from its CLI spec.
func parseFilter(spec string) (filter.Factory, error) {
	switch {
	case spec == "mp":
		return filter.MPFactory(filter.DefaultMPConfig())
	case spec == "none":
		return nil, nil
	case strings.HasPrefix(spec, "ewma:"):
		alpha, err := strconv.ParseFloat(strings.TrimPrefix(spec, "ewma:"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ewma alpha: %w", err)
		}
		return filter.EWMAFactory(alpha)
	case strings.HasPrefix(spec, "threshold:"):
		cutoff, err := strconv.ParseFloat(strings.TrimPrefix(spec, "threshold:"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold cutoff: %w", err)
		}
		return filter.ThresholdFactory(cutoff)
	default:
		return nil, fmt.Errorf("unknown filter %q", spec)
	}
}

// parsePolicy builds a policy factory from its CLI spec, a row of
// heuristic.Choices. A threshold of 0 means the policy's paper default.
func parsePolicy(spec string, window int, threshold float64) (sim.PolicyFactory, error) {
	choice, ok := heuristic.Choose(spec)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", spec)
	}
	return func(dim int) (heuristic.Policy, error) { return choice.New(dim, window, threshold) }, nil
}
