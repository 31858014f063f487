// Package experiments regenerates every table and figure in the paper's
// evaluation. Each Fig/Table function runs the necessary simulations at a
// requested Scale and returns a typed result with a Render method that
// prints the same rows/series the paper reports. The bench harness at the
// repository root and cmd/ncbench both drive these runners.
//
// Two scales are provided: QuickScale for CI-speed runs that preserve the
// qualitative shape of every result, and PaperScale matching the paper's
// deployment (269 nodes, four hours, per-second sampling).
package experiments

import (
	"fmt"
	"strings"

	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/netsim"
	"netcoord/internal/sim"
	"netcoord/internal/stats"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
)

// Scale sizes an experiment.
type Scale struct {
	// Nodes is the population size.
	Nodes int
	// DurationTicks is the run length in seconds.
	DurationTicks uint64
	// IntervalTicks is the per-node sampling period in seconds.
	IntervalTicks uint64
	// Seed drives all randomness.
	Seed uint64
}

// runnerConfig assembles the common sim.Config for this scale, including
// the metric-storage reservations that keep the replay loop
// allocation-free.
func (s Scale) runnerConfig(vcfg vivaldi.Config, f filter.Factory, p sim.PolicyFactory) sim.Config {
	return sim.Config{
		Nodes:                  s.Nodes,
		Vivaldi:                vcfg,
		Filter:                 f,
		Policy:                 p,
		ExpectedTicks:          s.DurationTicks,
		ExpectedSamplesPerNode: int(s.DurationTicks/s.IntervalTicks) + 1,
	}
}

// PaperScale matches the paper's PlanetLab runs: 269 nodes, four hours,
// one observation per node per second.
func PaperScale() Scale {
	return Scale{Nodes: 269, DurationTicks: 4 * 3600, IntervalTicks: 1, Seed: 20050502}
}

// QuickScale preserves every qualitative result at a fraction of the
// cost: 64 nodes, 40 minutes.
func QuickScale() Scale {
	return Scale{Nodes: 64, DurationTicks: 2400, IntervalTicks: 1, Seed: 20050502}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	if s.Nodes < 4 {
		return fmt.Errorf("experiments: %d nodes, want >= 4", s.Nodes)
	}
	if s.DurationTicks < 60 {
		return fmt.Errorf("experiments: duration %d ticks, want >= 60", s.DurationTicks)
	}
	if s.IntervalTicks < 1 {
		return fmt.Errorf("experiments: interval %d, want >= 1", s.IntervalTicks)
	}
	return nil
}

// MeasureFrom returns the start of the measurement window: the paper
// always reports the second half of each run.
func (s Scale) MeasureFrom() uint64 { return s.DurationTicks / 2 }

// network builds the wide-area model for this scale, applying an
// optional mutation.
func (s Scale) network(mutate func(*netsim.Config)) (*netsim.Network, error) {
	cfg := netsim.DefaultWideArea(s.Nodes, s.Seed)
	if mutate != nil {
		mutate(&cfg)
	}
	return netsim.New(cfg)
}

// generator builds the trace generator over a network.
func (s Scale) generator(net *netsim.Network) (*trace.Generator, error) {
	return trace.NewGenerator(net, trace.GeneratorConfig{
		IntervalTicks: s.IntervalTicks,
		DurationTicks: s.DurationTicks,
		Seed:          s.Seed + 1,
	})
}

// runSpec describes one simulation run.
type runSpec struct {
	scale     Scale
	filter    filter.Factory
	policy    sim.PolicyFactory
	netMutate func(*netsim.Config)
	vivMutate func(*vivaldi.Config)
}

// run executes one simulation and returns its runner for metric readout.
func run(spec runSpec) (*sim.Runner, error) {
	if err := spec.scale.Validate(); err != nil {
		return nil, err
	}
	net, err := spec.scale.network(spec.netMutate)
	if err != nil {
		return nil, err
	}
	vcfg := vivaldi.DefaultConfig()
	vcfg.Seed = spec.scale.Seed + 2
	if spec.vivMutate != nil {
		spec.vivMutate(&vcfg)
	}
	runner, err := sim.NewRunner(spec.scale.runnerConfig(vcfg, spec.filter, spec.policy))
	if err != nil {
		return nil, err
	}
	gen, err := spec.scale.generator(net)
	if err != nil {
		return nil, err
	}
	if err := runner.Run(gen); err != nil {
		return nil, err
	}
	return runner, nil
}

// mpFactory is the paper's recommended filter; mpFactoryImmediate is
// the paper's original MP configuration that outputs from the very
// first sample (no warm-up), as deployed in the PlanetLab experiment
// before the Section VI fix.
var (
	mpFactory          = mustFactory(filter.MPFactory(filter.DefaultMPConfig()))
	mpFactoryImmediate = mustFactory(filter.MPFactory(filter.MPConfig{
		History:     filter.DefaultHistory,
		Percentile:  filter.DefaultPercentile,
		UpdateAfter: 1,
	}))
)

// mustFactory unwraps a factory built from parameters written in this
// package: one that does not validate is a mistake in the source, to be
// met at start-up rather than hidden behind an unfiltered run.
func mustFactory(f filter.Factory, err error) filter.Factory {
	if err != nil {
		panic(err)
	}
	return f
}

// energyPolicy builds the deployed ENERGY policy (window 32, tau 8).
func energyPolicy(dim int) (heuristic.Policy, error) {
	return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
}

// cdfSummary renders a compact CDF description: selected quantiles of a
// sample.
func cdfSummary(name string, values []float64) string {
	if len(values) == 0 {
		return fmt.Sprintf("%-28s (no data)\n", name)
	}
	c, err := stats.NewCDF(values)
	if err != nil {
		return fmt.Sprintf("%-28s (error: %v)\n", name, err)
	}
	return fmt.Sprintf("%-28s p10=%-9.4g p25=%-9.4g p50=%-9.4g p75=%-9.4g p90=%-9.4g p99=%-9.4g\n",
		name, c.Quantile(0.10), c.Quantile(0.25), c.Quantile(0.50), c.Quantile(0.75), c.Quantile(0.90), c.Quantile(0.99))
}

// header renders a section header for experiment output.
func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}

// pct renders a fractional change as a signed percentage.
func pct(newV, baseV float64) string {
	if baseV == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", (newV-baseV)/baseV*100)
}
