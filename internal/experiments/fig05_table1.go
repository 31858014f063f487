package experiments

import (
	"fmt"
	"math"
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

// Headlines implements the experiment output contract.
func (r *Fig05Result) Headlines() []Headline {
	return []Headline{
		{Name: "mp-err", Value: r.MP.Summary.MedianRelErr},
		{Name: "raw-err", Value: r.Raw.Summary.MedianRelErr},
		{Name: "tail-ratio", Paper: "~3 orders of magnitude", Value: r.WorstInstabilityRatio},
	}
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
	ewma := func(alpha float64) filter.Factory { return mustFactory(filter.EWMAFactory(alpha)) }
	rows, err := compareFilters(scale, "table 1",
		filterConfig{name: "EWMA a=0.02", factory: ewma(0.02)},
		filterConfig{name: "EWMA a=0.10", factory: ewma(0.10)},
		filterConfig{name: "EWMA a=0.20", factory: ewma(0.20)},
	)
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

// Render implements the experiment output contract.
func (r *Table1Result) Render() string {
	return renderFilterTable("Table I: exponentially-weighted histories vs MP filter", r.Rows,
		"paper: MP 0.07 (-42%) / 415 (-47%); none 0.12 / 783; EWMAs worse on accuracy than no filter")
}

// Headlines implements the experiment output contract.
func (r *Table1Result) Headlines() []Headline {
	const ewmaPaper = "worse on accuracy than no filter"
	mp, none := filterRow(r.Rows, "MP Filter"), filterRow(r.Rows, "No Filter")
	return []Headline{
		{Name: "mp-err", Paper: "0.07", Value: mp.MedianRelErr},
		{Name: "mp-inst", Paper: "415", Value: mp.MedianInstability},
		{Name: "none-err", Paper: "0.12", Value: none.MedianRelErr},
		{Name: "none-inst", Paper: "783", Value: none.MedianInstability},
		{Name: "ewma02-err", Paper: ewmaPaper, Value: filterRow(r.Rows, "EWMA a=0.02").MedianRelErr},
		{Name: "ewma10-err", Paper: ewmaPaper, Value: filterRow(r.Rows, "EWMA a=0.10").MedianRelErr},
		{Name: "ewma20-err", Paper: ewmaPaper, Value: filterRow(r.Rows, "EWMA a=0.20").MedianRelErr},
	}
}

// filterRow returns the row of rows named name. A missing row reads NaN
// in both columns, so its headlines show as missing instead of
// vanishing.
func filterRow(rows []Table1Row, name string) Table1Row {
	for _, row := range rows {
		if row.Name == name {
			return row
		}
	}
	return Table1Row{Name: name, MedianRelErr: math.NaN(), MedianInstability: math.NaN()}
}

// filterConfig is one filter a filter comparison runs.
type filterConfig struct {
	name    string
	factory filter.Factory
}

// compareFilters runs the MP filter, no filter and then each of others
// on identical traces, and tabulates every one against no filter, as
// Table I does. what names the experiment in errors.
func compareFilters(scale Scale, what string, others ...filterConfig) ([]Table1Row, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks
	cfgs := append([]filterConfig{{name: "MP Filter", factory: mpFactory}, {name: "No Filter"}}, others...)
	summaries := make([]metrics.Summary, len(cfgs))
	for i, c := range cfgs {
		r, err := scale.recipe(c.factory, nil).Run()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", what, c.name, err)
		}
		if summaries[i], err = r.Sys().Summarize(from, to); err != nil {
			return nil, err
		}
	}
	base := summaries[1] // No Filter
	rows := make([]Table1Row, len(cfgs))
	for i, c := range cfgs {
		rows[i] = Table1Row{
			Name:              c.name,
			MedianRelErr:      summaries[i].MedianRelErr,
			MedianInstability: summaries[i].MedianInstability,
			RelErrDelta:       pct(summaries[i].MedianRelErr, base.MedianRelErr),
			InstabilityDelta:  pct(summaries[i].MedianInstability, base.MedianInstability),
		}
	}
	return rows, nil
}

// renderFilterTable renders rows from compareFilters under title, with
// note as the last line.
func renderFilterTable(title string, rows []Table1Row, note string) string {
	var sb strings.Builder
	sb.WriteString(header(title))
	sb.WriteString(fmt.Sprintf("%-14s %-22s %-22s\n", "filter", "median rel err", "instability (ms/s)"))
	for _, row := range rows {
		sb.WriteString(fmt.Sprintf("%-14s %-8.3f (%-6s)      %-8.1f (%-6s)\n",
			row.Name, row.MedianRelErr, row.RelErrDelta, row.MedianInstability, row.InstabilityDelta))
	}
	sb.WriteString(note + "\n")
	return sb.String()
}
