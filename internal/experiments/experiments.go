// Package experiments regenerates every table and figure in the paper's
// evaluation. Each Fig/Table function runs the necessary simulations at a
// requested Scale and returns a typed result with a Render method that
// prints the same rows/series the paper reports, and a Headlines method
// that names the few numbers the paper's text quotes. Table lists all
// twenty experiments once, in order; cmd/ncbench and
// BenchmarkExperiments walk it, each id names its golden render,
// testdata/<id>.golden, and HeadlineTable renders every run's headlines
// as the one table REPRODUCTION.md holds at QuickScale.
//
// Two scales are provided: QuickScale for CI-speed runs that preserve the
// qualitative shape of every result, and PaperScale matching the paper's
// deployment (269 nodes, four hours, per-second sampling).
//
// Every run is a sim.Recipe built from its Scale (Scale.recipe), which
// is where all of a run's seeds come from: with s = Scale.Seed, the
// network is seeded with s, the trace generator with s+1 and Vivaldi
// with s+2. Configurations compared in one figure therefore replay the
// same trace. A figure states only what differs: its filter and policy,
// an edit of the default network (A1's static matrix, A3's route
// change, Figure 7's drift), Figure 6's low-latency cluster, or E2's
// join spread. The network itself is chosen in sim.Recipe, so a change
// there reaches every figure. Recipe.Run refuses an unmeasurable scale
// before it builds anything; a figure checks the scale itself only when
// it builds a trace or divides by the interval first.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/sim"
	"netcoord/internal/stats"
)

// Result is what every experiment returns: Render prints the rows and
// series the paper reports, and Headlines lists its headline numbers.
type Result interface {
	Render() string
	Headlines() []Headline
}

// Headline is one headline number of an experiment.
type Headline struct {
	// Name is a short unit-like name without whitespace, unique within
	// its experiment; BenchmarkExperiments reports Value under it.
	Name string
	// Paper is the paper's value as Render quotes it, or "" where the
	// paper quotes none.
	Paper string
	// Value is the measured number.
	Value float64
}

// Outcome is one experiment's result under its Table id.
type Outcome struct {
	ID     string
	Result Result
}

// HeadlineTable renders the headline numbers of outcomes, in order, as
// one markdown table: experiment id, name, the paper's value and the
// measured one.
func HeadlineTable(outcomes []Outcome) string {
	var sb strings.Builder
	sb.WriteString("| id | name | paper | measured |\n|---|---|---|---|\n")
	for _, o := range outcomes {
		for _, h := range o.Result.Headlines() {
			fmt.Fprintf(&sb, "| %s | %s | %s | %s |\n", o.ID, h.Name, h.Paper, formatHeadline(h.Value))
		}
	}
	return sb.String()
}

// formatHeadline prints a whole number in full and any other value to
// four significant digits.
func formatHeadline(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// Experiment is one entry of Table: its id, as cmd/ncbench names it,
// and the runner that reproduces it at a Scale.
type Experiment struct {
	ID  string
	Run func(Scale) (Result, error)
}

// Table is the paper's evaluation in the order cmd/ncbench runs it:
// Figures 2 to 14 with Table I after Figure 5, then the ablations A1 to
// A4 and the extensions E1 and E2. Each call returns a new slice.
func Table() []Experiment {
	return []Experiment{
		entry("fig2", Fig02RawLatencyHistogram),
		entry("fig3", Fig03SingleLinkDistribution),
		entry("fig4", Fig04HistorySizeSweep),
		entry("fig5", Fig05FilterCDFs),
		entry("table1", Table1FilterComparison),
		entry("fig6", Fig06ConfidenceBuilding),
		entry("fig7", Fig07CoordinateDrift),
		entry("fig8", Fig08ThresholdSweep),
		entry("fig9", Fig09WindowSizeSweep),
		entry("fig10", Fig10HeuristicComparison),
		entry("fig11", Fig11AppLevelCDFs),
		entry("fig12", Fig12ApplicationCentroid),
		entry("fig13", Fig13PlanetLabComparison),
		entry("fig14", Fig14ConvergenceTimeline),
		entry("a1", AblationStaticMatrix),
		entry("a2", AblationThresholdFilter),
		entry("a3", AblationDampedVivaldi),
		entry("a4", AblationFilterWarmup),
		entry("e1", ExtensionDetectorComparison),
		entry("e2", ExtensionChurnRobustness),
	}
}

// entry adapts a typed runner to Experiment.Run. A failed run returns
// a nil Result, not a nil pointer wrapped in one.
func entry[R Result](id string, run func(Scale) (R, error)) Experiment {
	return Experiment{ID: id, Run: func(s Scale) (Result, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

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

// Validate checks the scale: sim.Recipe's rule for a measured run.
func (s Scale) Validate() error { return s.recipe(nil, nil).Validate() }

// MeasureFrom returns the start of the measurement window: the paper
// always reports the second half of each run.
func (s Scale) MeasureFrom() uint64 { return s.DurationTicks / 2 }

// recipe is this scale's synthetic run with the given filter and
// policy, on the default network with default Vivaldi.
func (s Scale) recipe(f filter.Factory, p sim.PolicyFactory) sim.Recipe {
	return sim.Recipe{
		Nodes:         s.Nodes,
		Seed:          s.Seed,
		IntervalTicks: s.IntervalTicks,
		DurationTicks: s.DurationTicks,
		Filter:        f,
		Policy:        p,
	}
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
