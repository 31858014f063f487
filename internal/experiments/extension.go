package experiments

import (
	"fmt"
	"strings"

	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/metrics"
	"netcoord/internal/sim"
	"netcoord/internal/stats"
)

// ExtensionDetectorResult (E1) goes one step beyond the paper: it adds
// the one-dimensional rank-sum detector — the kind of standard test the
// Kifer et al. framework was built on, which the paper notes cannot
// handle multi-dimensional coordinates directly — as a third policy,
// projected onto distance-from-start-centroid. All three share the same
// two-window machinery and centroid publication, isolating the value of
// a genuinely multi-dimensional statistic.
type ExtensionDetectorResult struct {
	Energy   metrics.Summary
	Relative metrics.Summary
	RankSum  metrics.Summary
}

// ExtensionDetectorComparison runs ENERGY, RELATIVE and RANKSUM with the
// paper's window of 32 and their respective standard thresholds.
func ExtensionDetectorComparison(scale Scale) (*ExtensionDetectorResult, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks
	res := &ExtensionDetectorResult{}
	type entry struct {
		out     *metrics.Summary
		factory func(dim int) (heuristic.Policy, error)
	}
	entries := []entry{
		{out: &res.Energy, factory: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
		}},
		{out: &res.Relative, factory: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewRelative(dim, heuristic.DefaultWindow, heuristic.DefaultRelativeEpsilon)
		}},
		{out: &res.RankSum, factory: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewRankSum(dim, heuristic.DefaultWindow, heuristic.DefaultRankSumZ)
		}},
	}
	for _, e := range entries {
		r, err := scale.recipe(mpFactory, e.factory).Run()
		if err != nil {
			return nil, err
		}
		s, err := r.App().Summarize(from, to)
		if err != nil {
			return nil, err
		}
		*e.out = s
	}
	return res, nil
}

// Render implements the experiment output contract.
func (r *ExtensionDetectorResult) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Extension E1: multi-dimensional vs 1-D change detection (window 32)"))
	sb.WriteString(fmt.Sprintf("%-22s %-14s %-14s %-14s\n", "detector", "med rel err", "instability", "updates/s (%)"))
	row := func(name string, s metrics.Summary) {
		sb.WriteString(fmt.Sprintf("%-22s %-14.4f %-14.3f %-14.2f\n",
			name, s.MedianRelErr, s.MedianInstability, s.MeanUpdateFraction*100))
	}
	row("ENERGY (tau=8)", r.Energy)
	row("RELATIVE (eps=0.3)", r.Relative)
	row("RANKSUM (|z|>1.96)", r.RankSum)
	sb.WriteString("the 1-D projection works when coordinates move radially but misses direction-only change;\n")
	sb.WriteString("see internal/window's blind-spot test for the constructed failure case\n")
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *ExtensionDetectorResult) Headlines() []Headline {
	return []Headline{
		{Name: "energy-err", Value: r.Energy.MedianRelErr},
		{Name: "ranksum-err", Value: r.RankSum.MedianRelErr},
	}
}

// ExtensionChurnResult (E2) tests the paper's closing Section VI claim:
// "In a long-running system where nodes periodically enter and leave,
// adding a delay to the filter would increase its robustness against
// these pathological cases at only a small cost." With joins spread
// across most of the run, brand-new links keep appearing, and every
// first sample on one is a potential outlier that an immediate-output MP
// filter forwards straight into Vivaldi.
type ExtensionChurnResult struct {
	// ImmediateTail / WarmupTail are the 99th percentile of the
	// per-second instability distribution over the churn period.
	ImmediateTail float64
	WarmupTail    float64
	// ImmediateErr / WarmupErr are final-quarter median relative errors
	// (the "only a small cost" half of the claim).
	ImmediateErr float64
	WarmupErr    float64
}

// ExtensionChurnRobustness runs the churn workload with MP warm-up of 1
// (the paper's deployed filter) vs 2 (the proposed fix).
func ExtensionChurnRobustness(scale Scale) (*ExtensionChurnResult, error) {
	churnSpread := scale.DurationTicks * 3 / 4
	runChurn := func(f filter.Factory) (*sim.Runner, error) {
		r := scale.recipe(f, nil)
		r.JoinSpreadTicks = churnSpread
		return r.Run()
	}
	immediate, err := runChurn(mpFactoryImmediate)
	if err != nil {
		return nil, fmt.Errorf("churn immediate: %w", err)
	}
	warm, err := runChurn(mpFactory)
	if err != nil {
		return nil, fmt.Errorf("churn warm-up: %w", err)
	}
	res := &ExtensionChurnResult{}
	// Tail instability over the churn window (skip the initial mass
	// bootstrap, which dominates both).
	tail := func(r *sim.Runner) (float64, error) {
		series := r.Sys().InstabilitySeries(scale.DurationTicks/10, churnSpread)
		return stats.Percentile(series, 99)
	}
	if res.ImmediateTail, err = tail(immediate); err != nil {
		return nil, err
	}
	if res.WarmupTail, err = tail(warm); err != nil {
		return nil, err
	}
	finalFrom := churnSpread + (scale.DurationTicks-churnSpread)/2
	iSum, err := immediate.Sys().Summarize(finalFrom, scale.DurationTicks)
	if err != nil {
		return nil, err
	}
	wSum, err := warm.Sys().Summarize(finalFrom, scale.DurationTicks)
	if err != nil {
		return nil, err
	}
	res.ImmediateErr = iSum.MedianRelErr
	res.WarmupErr = wSum.MedianRelErr
	return res, nil
}

// Render implements the experiment output contract.
func (r *ExtensionChurnResult) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Extension E2: filter warm-up under continuous churn (joins spread over 75% of run)"))
	sb.WriteString(fmt.Sprintf("%-20s %-24s %-18s\n", "config", "p99 instability (churn)", "final rel err"))
	sb.WriteString(fmt.Sprintf("%-20s %-24.2f %-18.4f\n", "warm-up 1 (paper)", r.ImmediateTail, r.ImmediateErr))
	sb.WriteString(fmt.Sprintf("%-20s %-24.2f %-18.4f\n", "warm-up 2 (fix)", r.WarmupTail, r.WarmupErr))
	sb.WriteString("the Section VI claim: the one-sample delay buys churn robustness at only a small cost\n")
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *ExtensionChurnResult) Headlines() []Headline {
	return []Headline{
		{Name: "p99-inst-w1", Value: r.ImmediateTail},
		{Name: "p99-inst-w2", Value: r.WarmupTail},
	}
}
