package experiments

import (
	"fmt"
	"strings"

	"netcoord/internal/filter"
	"netcoord/internal/metrics"
	"netcoord/internal/stats"
)

// StreamCDFs packages the four per-run CDFs of Figure 5 for one
// configuration.
type StreamCDFs struct {
	Name string
	// MedianRelErrPerNode is each node's median relative error.
	MedianRelErrPerNode []float64
	// P95RelErrPerNode is each node's 95th-percentile relative error.
	P95RelErrPerNode []float64
	// P95MovementPerNode is each node's 95th-percentile per-observation
	// coordinate change (ms).
	P95MovementPerNode []float64
	// Instability is the per-second aggregate coordinate change (ms/s).
	Instability []float64
	// Summary condenses the run.
	Summary metrics.Summary
}

// collectStreamCDFs reads the Figure 5 metric set out of a collector.
func collectStreamCDFs(name string, col *metrics.Collector, from, to uint64) (StreamCDFs, error) {
	errQ, err := col.PerNodeErrorQuantiles(from, to, 50, 95)
	if err != nil {
		return StreamCDFs{}, err
	}
	mov, err := col.PerNodeMovementQuantile(95, from, to)
	if err != nil {
		return StreamCDFs{}, err
	}
	sum, err := col.Summarize(from, to)
	if err != nil {
		return StreamCDFs{}, err
	}
	return StreamCDFs{
		Name:                name,
		MedianRelErrPerNode: errQ[0],
		P95RelErrPerNode:    errQ[1],
		P95MovementPerNode:  mov,
		Instability:         col.InstabilitySeries(from, to),
		Summary:             sum,
	}, nil
}

// renderStream renders one configuration's CDF quantiles.
func renderStream(s StreamCDFs) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("--- %s ---\n", s.Name))
	sb.WriteString(cdfSummary("median rel err per node", s.MedianRelErrPerNode))
	sb.WriteString(cdfSummary("95th pct rel err per node", s.P95RelErrPerNode))
	sb.WriteString(cdfSummary("95th pct movement per node", s.P95MovementPerNode))
	sb.WriteString(cdfSummary("instability (ms/s)", s.Instability))
	return sb.String()
}

// Fig05Result reproduces Figure 5: MP filter vs no filter on the same
// trace — accuracy and stability CDFs plus the filtered-histogram bottom
// panel.
type Fig05Result struct {
	MP  StreamCDFs
	Raw StreamCDFs
	// RawHist and FilteredHist are the bottom panel: the raw observation
	// distribution vs what the MP filter forwards to Vivaldi.
	RawHist      *stats.Histogram
	FilteredHist *stats.Histogram
	// WorstInstabilityRatio is raw's maximum instability over MP's — the
	// paper reports three orders of magnitude.
	WorstInstabilityRatio float64
}

// Fig05FilterCDFs runs the MP-vs-none comparison.
func Fig05FilterCDFs(scale Scale) (*Fig05Result, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks

	mpRun, err := scale.recipe(mpFactory, nil).Run()
	if err != nil {
		return nil, fmt.Errorf("fig 5 mp run: %w", err)
	}
	mp, err := collectStreamCDFs("MP filter", mpRun.Sys(), from, to)
	if err != nil {
		return nil, err
	}
	rawRun, err := scale.recipe(nil, nil).Run()
	if err != nil {
		return nil, fmt.Errorf("fig 5 raw run: %w", err)
	}
	raw, err := collectStreamCDFs("No filter", rawRun.Sys(), from, to)
	if err != nil {
		return nil, err
	}

	rawHist, filteredHist, err := fig05Histograms(scale)
	if err != nil {
		return nil, err
	}

	worst := 0.0
	maxOf := func(vs []float64) float64 {
		m := 0.0
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	}
	if mpMax := maxOf(mp.Instability); mpMax > 0 {
		worst = maxOf(raw.Instability) / mpMax
	}
	return &Fig05Result{
		MP: mp, Raw: raw,
		RawHist: rawHist, FilteredHist: filteredHist,
		WorstInstabilityRatio: worst,
	}, nil
}

// fig05Histograms builds the bottom panel: raw observations vs MP filter
// outputs over the measurement half of the trace.
func fig05Histograms(scale Scale) (raw, filtered *stats.Histogram, err error) {
	gen, err := scale.recipe(nil, nil).Trace()
	if err != nil {
		return nil, nil, err
	}
	raw, err = stats.NewHistogram(stats.Fig2Bounds())
	if err != nil {
		return nil, nil, err
	}
	filtered, err = stats.NewHistogram(stats.Fig2Bounds())
	if err != nil {
		return nil, nil, err
	}
	// Filter output alone, no coordinates: one MP filter per directed link.
	links := make(map[[2]int]filter.Filter)
	for {
		s, ok := gen.Next()
		if !ok {
			break
		}
		if s.Lost {
			continue
		}
		raw.Observe(s.RTT)
		link := [2]int{s.From, s.To}
		if links[link] == nil {
			links[link] = mpFactory()
		}
		if est, ok := links[link].Observe(s.RTT); ok {
			filtered.Observe(est)
		}
	}
	return raw, filtered, nil
}

// Render implements the experiment output contract.
func (r *Fig05Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 5: accuracy and stability CDFs, MP filter vs no filter (second half of run)"))
	sb.WriteString(renderStream(r.MP))
	sb.WriteString(renderStream(r.Raw))
	sb.WriteString(fmt.Sprintf("worst-case instability ratio raw/MP: %.0fx (paper: ~3 orders of magnitude)\n\n", r.WorstInstabilityRatio))
	sb.WriteString("bottom panel: observation distribution before vs after MP filtering\n")
	sb.WriteString("RAW:\n")
	sb.WriteString(r.RawHist.Render())
	sb.WriteString("MP-FILTERED (tail trimmed, body intact):\n")
	sb.WriteString(r.FilteredHist.Render())
	return sb.String()
}

// Table1Row is one configuration of Table I.
type Table1Row struct {
	Name              string
	MedianRelErr      float64
	MedianInstability float64
	// RelErrDelta and InstabilityDelta are percentage changes vs the
	// no-filter baseline, as the paper tabulates.
	RelErrDelta      string
	InstabilityDelta string
}

// Table1Result reproduces Table I: MP vs no filter vs EWMA at three
// alphas. The paper's finding: every EWMA is less accurate than no
// filter at all.
type Table1Result struct {
	Rows []Table1Row
}

// Table1FilterComparison runs the five configurations of Table I on
// identical traces.
func Table1FilterComparison(scale Scale) (*Table1Result, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks
	type cfg struct {
		name    string
		factory filter.Factory
	}
	ewma := func(alpha float64) filter.Factory { return mustFactory(filter.EWMAFactory(alpha)) }
	cfgs := []cfg{
		{name: "MP Filter", factory: mpFactory},
		{name: "No Filter", factory: nil},
		{name: "EWMA a=0.02", factory: ewma(0.02)},
		{name: "EWMA a=0.10", factory: ewma(0.10)},
		{name: "EWMA a=0.20", factory: ewma(0.20)},
	}
	summaries := make([]metrics.Summary, len(cfgs))
	for i, c := range cfgs {
		r, err := scale.recipe(c.factory, nil).Run()
		if err != nil {
			return nil, fmt.Errorf("table 1 %s: %w", c.name, err)
		}
		s, err := r.Sys().Summarize(from, to)
		if err != nil {
			return nil, err
		}
		summaries[i] = s
	}
	base := summaries[1] // No Filter
	res := &Table1Result{}
	for i, c := range cfgs {
		res.Rows = append(res.Rows, Table1Row{
			Name:              c.name,
			MedianRelErr:      summaries[i].MedianRelErr,
			MedianInstability: summaries[i].MedianInstability,
			RelErrDelta:       pct(summaries[i].MedianRelErr, base.MedianRelErr),
			InstabilityDelta:  pct(summaries[i].MedianInstability, base.MedianInstability),
		})
	}
	return res, nil
}

// Render implements the experiment output contract.
func (r *Table1Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Table I: exponentially-weighted histories vs MP filter"))
	sb.WriteString(fmt.Sprintf("%-14s %-22s %-22s\n", "filter", "median rel err", "instability (ms/s)"))
	for _, row := range r.Rows {
		sb.WriteString(fmt.Sprintf("%-14s %-8.3f (%-6s)      %-8.1f (%-6s)\n",
			row.Name, row.MedianRelErr, row.RelErrDelta, row.MedianInstability, row.InstabilityDelta))
	}
	sb.WriteString("paper: MP 0.07 (-42%) / 415 (-47%); none 0.12 / 783; EWMAs worse on accuracy than no filter\n")
	return sb.String()
}
