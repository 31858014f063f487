package experiments

import (
	"fmt"
	"strings"

	"netcoord/internal/filter"
	"netcoord/internal/metrics"
	"netcoord/internal/netsim"
	"netcoord/internal/vivaldi"
)

// AblationStaticMatrixResult (A1) contrasts the original Vivaldi
// evaluation methodology — a fixed latency matrix — with live observation
// streams, both unfiltered. The paper's motivating observation: Vivaldi
// looks fine in matrix-driven simulation and breaks on real input.
type AblationStaticMatrixResult struct {
	Static metrics.Summary
	Live   metrics.Summary
}

// AblationStaticMatrix runs unfiltered Vivaldi on both inputs.
func AblationStaticMatrix(scale Scale) (*AblationStaticMatrixResult, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks
	static := scale.recipe(nil, nil)
	static.EditNetwork = func(c *netsim.Config) { c.Static = true }
	staticRun, err := static.Run()
	if err != nil {
		return nil, err
	}
	liveRun, err := scale.recipe(nil, nil).Run()
	if err != nil {
		return nil, err
	}
	st, err := staticRun.Sys().Summarize(from, to)
	if err != nil {
		return nil, err
	}
	lv, err := liveRun.Sys().Summarize(from, to)
	if err != nil {
		return nil, err
	}
	return &AblationStaticMatrixResult{Static: st, Live: lv}, nil
}

// Render implements the experiment output contract.
func (r *AblationStaticMatrixResult) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Ablation A1: static latency matrix vs live observation streams (no filter)"))
	sb.WriteString(fmt.Sprintf("%-16s %-14s %-14s\n", "input", "med rel err", "instability"))
	sb.WriteString(fmt.Sprintf("%-16s %-14.4f %-14.2f\n", "static matrix", r.Static.MedianRelErr, r.Static.MedianInstability))
	sb.WriteString(fmt.Sprintf("%-16s %-14.4f %-14.2f\n", "live streams", r.Live.MedianRelErr, r.Live.MedianInstability))
	sb.WriteString("the original evaluation's methodology hides the instability the paper addresses\n")
	return sb.String()
}

// AblationThresholdResult (A2) measures the fixed-cutoff filter the
// paper rejected in Section IV-B: helpful against the global extremes,
// useless for per-link outliers below the cutoff.
type AblationThresholdResult struct {
	Rows []Table1Row
}

// AblationThresholdFilter compares cutoffs against MP and no filter.
func AblationThresholdFilter(scale Scale) (*AblationThresholdResult, error) {
	threshold := func(cutoff float64) filter.Factory { return mustFactory(filter.ThresholdFactory(cutoff)) }
	rows, err := compareFilters(scale, "ablation threshold",
		filterConfig{name: "Cutoff 1000ms", factory: threshold(1000)},
		filterConfig{name: "Cutoff 500ms", factory: threshold(500)},
		filterConfig{name: "Cutoff 250ms", factory: threshold(250)},
	)
	if err != nil {
		return nil, err
	}
	return &AblationThresholdResult{Rows: rows}, nil
}

// Render implements the experiment output contract.
func (r *AblationThresholdResult) Render() string {
	return renderFilterTable("Ablation A2: fixed discard thresholds vs MP filter", r.Rows,
		"paper: thresholds in isolation give only minimal improvement (Section IV-B)")
}

// AblationDampingResult (A3) measures the de Launois damping variant
// across a genuine route change: stable before, unable to adapt after.
type AblationDampingResult struct {
	// Before/After are median relative errors over the pre-/post-change
	// measurement windows.
	DampedBefore float64
	DampedAfter  float64
	MPBefore     float64
	MPAfter      float64
}

// AblationDampedVivaldi doubles the us-west/europe long-haul latency at
// 60% of the run and compares adaptation.
func AblationDampedVivaldi(scale Scale) (*AblationDampingResult, error) {
	changeAt := scale.DurationTicks * 6 / 10
	mutate := func(c *netsim.Config) {
		c.RouteChanges = []netsim.RouteChange{{AtTick: changeAt, RegionA: 0, RegionB: 2, Factor: 2}}
	}
	// Measurement windows: the stretch just before the change, and the
	// final stretch (allowing re-convergence time after it).
	preFrom, preTo := scale.DurationTicks*4/10, changeAt-1
	postFrom, postTo := scale.DurationTicks*8/10, scale.DurationTicks

	recipe := scale.recipe(mpFactory, nil)
	recipe.EditNetwork = mutate
	mp, err := recipe.Run()
	if err != nil {
		return nil, err
	}
	recipe.Vivaldi = vivaldi.DefaultConfig()
	recipe.Vivaldi.DampingConstant = 50
	damped, err := recipe.Run()
	if err != nil {
		return nil, err
	}
	res := &AblationDampingResult{}
	read := func(c *metrics.Collector, from, to uint64) (float64, error) {
		s, err := c.Summarize(from, to)
		if err != nil {
			return 0, err
		}
		return s.MedianRelErr, nil
	}
	if res.DampedBefore, err = read(damped.Sys(), preFrom, preTo); err != nil {
		return nil, err
	}
	if res.DampedAfter, err = read(damped.Sys(), postFrom, postTo); err != nil {
		return nil, err
	}
	if res.MPBefore, err = read(mp.Sys(), preFrom, preTo); err != nil {
		return nil, err
	}
	if res.MPAfter, err = read(mp.Sys(), postFrom, postTo); err != nil {
		return nil, err
	}
	return res, nil
}

// Render implements the experiment output contract.
func (r *AblationDampingResult) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Ablation A3: de Launois damping across a route change (us-west<->europe x2)"))
	sb.WriteString(fmt.Sprintf("%-18s %-16s %-16s\n", "config", "rel err before", "rel err after"))
	sb.WriteString(fmt.Sprintf("%-18s %-16.4f %-16.4f\n", "damped vivaldi", r.DampedBefore, r.DampedAfter))
	sb.WriteString(fmt.Sprintf("%-18s %-16.4f %-16.4f\n", "MP (undamped)", r.MPBefore, r.MPAfter))
	sb.WriteString("damping freezes the space: error after the change stays elevated (Section VII-B)\n")
	return sb.String()
}

// AblationWarmupResult (A4) quantifies the Section VI fix: an MP filter
// that answers from its very first sample lets first-observation
// outliers fling nodes across the space; waiting for the second sample
// removes the pathology.
type AblationWarmupResult struct {
	// EarlyInstability is the mean instability over the first tenth of
	// the run for each configuration.
	ImmediateEarly float64
	WarmupEarly    float64
	// Steady are the post-warmup medians — the fix must not cost
	// steady-state accuracy.
	ImmediateSteadyErr float64
	WarmupSteadyErr    float64
}

// AblationFilterWarmup compares UpdateAfter = 1 vs 2.
func AblationFilterWarmup(scale Scale) (*AblationWarmupResult, error) {
	earlyTo := scale.DurationTicks / 10
	from, to := scale.MeasureFrom(), scale.DurationTicks
	immediate, err := scale.recipe(mpFactoryImmediate, nil).Run()
	if err != nil {
		return nil, err
	}
	warm, err := scale.recipe(mpFactory, nil).Run()
	if err != nil {
		return nil, err
	}
	res := &AblationWarmupResult{}
	iEarly, err := immediate.Sys().Summarize(0, earlyTo)
	if err != nil {
		return nil, err
	}
	wEarly, err := warm.Sys().Summarize(0, earlyTo)
	if err != nil {
		return nil, err
	}
	iSteady, err := immediate.Sys().Summarize(from, to)
	if err != nil {
		return nil, err
	}
	wSteady, err := warm.Sys().Summarize(from, to)
	if err != nil {
		return nil, err
	}
	res.ImmediateEarly = iEarly.MeanInstability
	res.WarmupEarly = wEarly.MeanInstability
	res.ImmediateSteadyErr = iSteady.MedianRelErr
	res.WarmupSteadyErr = wSteady.MedianRelErr
	return res, nil
}

// Render implements the experiment output contract.
func (r *AblationWarmupResult) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Ablation A4: MP filter warm-up (UpdateAfter 1 vs 2)"))
	sb.WriteString(fmt.Sprintf("%-20s %-22s %-18s\n", "config", "early instability", "steady rel err"))
	sb.WriteString(fmt.Sprintf("%-20s %-22.2f %-18.4f\n", "immediate (paper)", r.ImmediateEarly, r.ImmediateSteadyErr))
	sb.WriteString(fmt.Sprintf("%-20s %-22.2f %-18.4f\n", "warm-up of 2 (fix)", r.WarmupEarly, r.WarmupSteadyErr))
	sb.WriteString("paper: waiting for the second sample \"greatly reduced early instability\" at no steady cost\n")
	return sb.String()
}
