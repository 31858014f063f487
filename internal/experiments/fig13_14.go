package experiments

import (
	"fmt"
	"strings"

	"netcoord/internal/metrics"
)

// Fig13Result reproduces the PlanetLab experiment (Figure 13): two
// coordinate systems run side by side on identical observation streams —
// one with the MP filter, one without — and each outputs both its raw
// (system) and ENERGY-suppressed (application) streams.
//
// The paper's headline: the enhancements combine to cut the median of
// per-node 95th-percentile relative error by 54% and instability by 96%;
// with the filter only 14% of nodes saw a 95th-percentile relative error
// above one, versus 62% without.
type Fig13Result struct {
	EnergyMP  StreamCDFs
	RawMP     StreamCDFs
	EnergyRaw StreamCDFs
	RawRaw    StreamCDFs
	// ErrImprovement is 1 - (EnergyMP p95 median / RawRaw p95 median).
	ErrImprovement float64
	// InstabilityImprovement is the same for median instability.
	InstabilityImprovement float64
	// FracAboveOneMP and FracAboveOneRaw are the fractions of nodes
	// whose 95th-pct relative error exceeds 1.
	FracAboveOneMP  float64
	FracAboveOneRaw float64
	// Quiet is the fraction of seconds in which the ENERGY+MP stream
	// moved less than the *minimum* per-second movement of the raw MP
	// stream (the paper reports 91%).
	Quiet float64
}

// Fig13PlanetLabComparison runs the paired-system experiment. The
// paper's original deployment used the no-warm-up MP filter and traced
// its worst disruptions to first-sample outliers; we reproduce that
// configuration faithfully here (UpdateAfter=1) — the A4 ablation
// measures the fix.
func Fig13PlanetLabComparison(scale Scale) (*Fig13Result, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks

	mpRun, err := scale.recipe(mpFactoryImmediate, energyPolicy).Run()
	if err != nil {
		return nil, fmt.Errorf("fig 13 mp run: %w", err)
	}
	rawRun, err := scale.recipe(nil, energyPolicy).Run()
	if err != nil {
		return nil, fmt.Errorf("fig 13 raw run: %w", err)
	}

	energyMP, err := collectStreamCDFs("ENERGY + MP filter", mpRun.App(), from, to)
	if err != nil {
		return nil, err
	}
	rawMP, err := collectStreamCDFs("Raw MP filter", mpRun.Sys(), from, to)
	if err != nil {
		return nil, err
	}
	energyRaw, err := collectStreamCDFs("ENERGY + no filter", rawRun.App(), from, to)
	if err != nil {
		return nil, err
	}
	rawRaw, err := collectStreamCDFs("Raw no filter", rawRun.Sys(), from, to)
	if err != nil {
		return nil, err
	}

	res := &Fig13Result{
		EnergyMP: energyMP, RawMP: rawMP,
		EnergyRaw: energyRaw, RawRaw: rawRaw,
	}
	if rawRaw.Summary.P95RelErrMedian > 0 {
		res.ErrImprovement = 1 - energyMP.Summary.P95RelErrMedian/rawRaw.Summary.P95RelErrMedian
	}
	if rawRaw.Summary.MedianInstability > 0 {
		res.InstabilityImprovement = 1 - energyMP.Summary.MedianInstability/rawRaw.Summary.MedianInstability
	}
	res.FracAboveOneMP = fracAbove(rawMP.P95RelErrPerNode, 1)
	res.FracAboveOneRaw = fracAbove(rawRaw.P95RelErrPerNode, 1)

	// "91% of the time it fell below even the minimum instability of the
	// raw filter."
	minRaw := minOf(rawMP.Instability)
	below := 0
	for _, v := range energyMP.Instability {
		if v < minRaw {
			below++
		}
	}
	if len(energyMP.Instability) > 0 {
		res.Quiet = float64(below) / float64(len(energyMP.Instability))
	}
	return res, nil
}

func fracAbove(vs []float64, x float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	n := 0
	for _, v := range vs {
		if v > x {
			n++
		}
	}
	return float64(n) / float64(len(vs))
}

func minOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}

// Render implements the experiment output contract.
func (r *Fig13Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 13: paired-system comparison (the PlanetLab experiment)"))
	sb.WriteString(renderStream(r.EnergyMP))
	sb.WriteString(renderStream(r.RawMP))
	sb.WriteString(renderStream(r.EnergyRaw))
	sb.WriteString(renderStream(r.RawRaw))
	sb.WriteString(fmt.Sprintf("median p95 rel err reduction (ENERGY+MP vs raw no filter): %.0f%% (paper: 54%%)\n", r.ErrImprovement*100))
	sb.WriteString(fmt.Sprintf("median instability reduction:                               %.0f%% (paper: 96%%)\n", r.InstabilityImprovement*100))
	sb.WriteString(fmt.Sprintf("nodes with p95 rel err > 1: MP %.0f%% vs no filter %.0f%% (paper: 14%% vs 62%%)\n",
		r.FracAboveOneMP*100, r.FracAboveOneRaw*100))
	sb.WriteString(fmt.Sprintf("seconds below raw-MP minimum instability: %.0f%% (paper: 91%%)\n", r.Quiet*100))
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig13Result) Headlines() []Headline {
	return []Headline{
		{Name: "%err-impr", Paper: "54%", Value: r.ErrImprovement * 100},
		{Name: "%inst-impr", Paper: "96%", Value: r.InstabilityImprovement * 100},
		{Name: "%p95gt1-mp", Paper: "14%", Value: r.FracAboveOneMP * 100},
		{Name: "%p95gt1-raw", Paper: "62%", Value: r.FracAboveOneRaw * 100},
		{Name: "%quiet", Paper: "91%", Value: r.Quiet * 100},
	}
}

// Fig14Result reproduces Figure 14: ten-minute-interval timelines of
// error and instability for the four streams of Figure 13, showing the
// ~half-hour convergence and the smooth steady state afterwards.
type Fig14Result struct {
	// Intervals maps stream name to its bucketed timeline.
	Intervals map[string][]metrics.IntervalStat
	// Order fixes the rendering order.
	Order []string
	// ConvergedBy is the first interval start (seconds) at which
	// ENERGY+MP's p95 error is within 1.5x of its final value.
	ConvergedBy uint64
}

// Fig14ConvergenceTimeline reruns the paired systems and buckets metrics
// into ten-minute intervals.
func Fig14ConvergenceTimeline(scale Scale) (*Fig14Result, error) {
	mpRun, err := scale.recipe(mpFactoryImmediate, energyPolicy).Run()
	if err != nil {
		return nil, err
	}
	rawRun, err := scale.recipe(nil, energyPolicy).Run()
	if err != nil {
		return nil, err
	}
	width := uint64(600)
	if scale.DurationTicks < 3600 {
		width = scale.DurationTicks / 6
	}
	res := &Fig14Result{
		Intervals: make(map[string][]metrics.IntervalStat),
		Order:     []string{"ENERGY + MP filter", "Raw MP filter", "ENERGY + no filter", "Raw no filter"},
	}
	collect := func(name string, col *metrics.Collector) error {
		ivs, err := col.Intervals(width)
		if err != nil {
			return err
		}
		res.Intervals[name] = ivs
		return nil
	}
	if err := collect("ENERGY + MP filter", mpRun.App()); err != nil {
		return nil, err
	}
	if err := collect("Raw MP filter", mpRun.Sys()); err != nil {
		return nil, err
	}
	if err := collect("ENERGY + no filter", rawRun.App()); err != nil {
		return nil, err
	}
	if err := collect("Raw no filter", rawRun.Sys()); err != nil {
		return nil, err
	}

	ivs := res.Intervals["ENERGY + MP filter"]
	if len(ivs) > 0 {
		final := ivs[len(ivs)-1].P95RelErr
		for _, iv := range ivs {
			if final > 0 && iv.P95RelErr <= 1.5*final {
				res.ConvergedBy = iv.StartTick
				break
			}
		}
	}
	return res, nil
}

// Render implements the experiment output contract.
func (r *Fig14Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 14: error and instability over time (10-minute intervals)"))
	for _, name := range r.Order {
		sb.WriteString(fmt.Sprintf("--- %s ---\n", name))
		sb.WriteString(fmt.Sprintf("%-10s %-12s %-12s %-14s\n", "t (min)", "med rel err", "p95 rel err", "mean instab"))
		for _, iv := range r.Intervals[name] {
			sb.WriteString(fmt.Sprintf("%-10.0f %-12.4f %-12.3f %-14.2f\n",
				float64(iv.StartTick)/60, iv.MedianRelErr, iv.P95RelErr, iv.MeanInstability))
		}
	}
	sb.WriteString(fmt.Sprintf("ENERGY+MP converged by t=%.0f min (paper: ~30 min)\n", float64(r.ConvergedBy)/60))
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig14Result) Headlines() []Headline {
	return []Headline{{Name: "conv-min", Paper: "~30 min", Value: float64(r.ConvergedBy) / 60}}
}
