package netcoord

import (
	"fmt"

	"netcoord/internal/heuristic"
	"netcoord/internal/sim"
)

// SimulationConfig describes a synthetic what-if run: N nodes on a
// seeded wide-area network exchanging observations for a given duration,
// all using the same client configuration. Use it to evaluate filter and
// policy choices before deploying — the same methodology the paper used
// to pick its PlanetLab parameters.
type SimulationConfig struct {
	// Nodes is the population size (>= 4 for a meaningful topology).
	Nodes int
	// Seconds is the run length; each node observes one peer per
	// SampleEverySeconds.
	Seconds int
	// SampleEverySeconds is the per-node observation period (0 = 1).
	SampleEverySeconds int
	// Client configures every node's coordinate pipeline; zero fields
	// take DefaultConfig's values.
	Client Config
	// Seed fixes the synthetic network and all randomness; runs with the
	// same config are bit-identical.
	Seed uint64
	// Churn spreads node joins over the first three quarters of the run
	// instead of starting everyone at once.
	Churn bool
	// Parallelism is ignored: a run steps its samples on one goroutine
	// (the trace is synthesized a block ahead on a second one).
	//
	// Deprecated: the field stays only because bench/ncload still sets
	// it; it goes when a benchmark issue stops doing so.
	Parallelism int
}

// SimulationResult summarizes a run, measured over its second half (the
// paper's convention, skipping start-up effects).
type SimulationResult struct {
	// Samples is the number of observations processed.
	Samples uint64
	// System and App summarize the two coordinate streams.
	System StreamSummary
	App    StreamSummary
}

// StreamSummary is the paper's metric set for one coordinate stream.
type StreamSummary struct {
	// MedianRelErr is the median over nodes of per-node median relative
	// error.
	MedianRelErr float64
	// P95RelErr is the median over nodes of per-node 95th-percentile
	// relative error.
	P95RelErr float64
	// MedianInstability is the median per-second aggregate coordinate
	// movement (ms/s).
	MedianInstability float64
	// UpdatesPerSecond is the mean fraction of nodes whose coordinate
	// changed per second.
	UpdatesPerSecond float64
}

// Simulate runs a synthetic evaluation of the given configuration. The
// run is a sim.Recipe, the one place where every synthetic run's network
// and seeds are chosen. With s = cfg.Seed, the network is
// netsim.DefaultWideArea seeded with s, the trace generator is seeded
// with s+1 and every node's Vivaldi with s+2, so the results of configs
// that differ only in Client come from the same trace.
func Simulate(cfg SimulationConfig) (SimulationResult, error) {
	if cfg.Seconds < 0 || cfg.SampleEverySeconds < 0 {
		return SimulationResult{}, fmt.Errorf("netcoord: simulate for %d s sampling every %d s, want both >= 0", cfg.Seconds, cfg.SampleEverySeconds)
	}
	if cfg.SampleEverySeconds == 0 {
		cfg.SampleEverySeconds = 1
	}
	resolved, vcfg, err := resolve(cfg.Client)
	if err != nil {
		return SimulationResult{}, err
	}
	factory, err := buildFilterFactory(resolved)
	if err != nil {
		return SimulationResult{}, fmt.Errorf("netcoord: %w", err)
	}
	recipe := sim.Recipe{
		Nodes:         cfg.Nodes,
		Seed:          cfg.Seed,
		IntervalTicks: uint64(cfg.SampleEverySeconds),
		DurationTicks: uint64(cfg.Seconds),
		Vivaldi:       vcfg,
		Filter:        factory,
		Policy: func(dim int) (heuristic.Policy, error) {
			c := resolved
			c.Dimension = dim
			return buildPolicy(c)
		},
	}
	if cfg.Churn {
		recipe.JoinSpreadTicks = uint64(cfg.Seconds) * 3 / 4
	}
	runner, err := recipe.Run()
	if err != nil {
		return SimulationResult{}, fmt.Errorf("netcoord: %w", err)
	}

	sysSum, appSum, err := runner.Summarize(uint64(cfg.Seconds)/2, uint64(cfg.Seconds))
	if err != nil {
		return SimulationResult{}, fmt.Errorf("netcoord: %w", err)
	}
	return SimulationResult{
		Samples: runner.Samples(),
		System: StreamSummary{
			MedianRelErr:      sysSum.MedianRelErr,
			P95RelErr:         sysSum.P95RelErrMedian,
			MedianInstability: sysSum.MedianInstability,
			UpdatesPerSecond:  sysSum.MeanUpdateFraction,
		},
		App: StreamSummary{
			MedianRelErr:      appSum.MedianRelErr,
			P95RelErr:         appSum.P95RelErrMedian,
			MedianInstability: appSum.MedianInstability,
			UpdatesPerSecond:  appSum.MeanUpdateFraction,
		},
	}, nil
}
