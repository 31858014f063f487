package experiments

import (
	"fmt"
	"math"
	"strings"

	"netcoord/internal/filter"
	"netcoord/internal/stats"
)

// Fig04Row is one boxplot of Figure 4: the distribution across links of
// per-link 95th-percentile relative prediction error, for one history
// size h (percentile fixed at p = 25).
type Fig04Row struct {
	History int
	Box     stats.Boxplot
	// Links is the number of links contributing.
	Links int
}

// Fig04Result reproduces Figure 4's history-size sweep. The paper's
// finding: h = 4 minimizes prediction error; long histories are not much
// worse but adapt more slowly.
type Fig04Result struct {
	Rows []Fig04Row
	// BestHistory is the h with the lowest median.
	BestHistory int
}

// Fig04HistorySizeSweep predicts each link's next observation with
// MP(h, 25) for h in {1, 2, ..., 128} and reports the per-link error
// distributions.
func Fig04HistorySizeSweep(scale Scale) (*Fig04Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	histories := []int{1, 2, 4, 8, 16, 32, 64, 128}
	res := &Fig04Result{}
	bestMedian := math.Inf(1)
	for _, h := range histories {
		row, err := fig04OneHistory(scale, h)
		if err != nil {
			return nil, fmt.Errorf("fig 4 h=%d: %w", h, err)
		}
		res.Rows = append(res.Rows, row)
		if row.Box.Median < bestMedian {
			bestMedian = row.Box.Median
			res.BestHistory = h
		}
	}
	return res, nil
}

func fig04OneHistory(scale Scale, h int) (Fig04Row, error) {
	gen, err := scale.recipe(nil, nil).Trace()
	if err != nil {
		return Fig04Row{}, err
	}
	type linkKey struct{ from, to int }
	type linkState struct {
		f       filter.Filter
		errs    []float64
		predict float64
		primed  bool
	}
	mp, err := filter.MPFactory(filter.MPConfig{History: h, Percentile: 25, UpdateAfter: 1})
	if err != nil {
		return Fig04Row{}, err
	}
	links := make(map[linkKey]*linkState)
	for {
		s, ok := gen.Next()
		if !ok {
			break
		}
		if s.Lost {
			continue
		}
		key := linkKey{s.From, s.To}
		st, ok := links[key]
		if !ok {
			st = &linkState{f: mp()}
			links[key] = st
		}
		// The filter's previous output is the prediction for this
		// observation ("we applied different filters to predict what the
		// next observation would be"). The first observation of a link
		// has no prediction.
		if st.primed {
			st.errs = append(st.errs, math.Abs(st.predict-s.RTT)/s.RTT)
		}
		if est, ok := st.f.Observe(s.RTT); ok {
			st.predict = est
			st.primed = true
		}
	}
	// Per-link 95th percentile.
	var p95s []float64
	for _, st := range links {
		if len(st.errs) < 4 {
			continue
		}
		v, err := stats.Percentile(st.errs, 95)
		if err != nil {
			return Fig04Row{}, err
		}
		p95s = append(p95s, v)
	}
	box, err := stats.BoxplotOf(p95s)
	if err != nil {
		return Fig04Row{}, err
	}
	return Fig04Row{History: h, Box: box, Links: len(p95s)}, nil
}

// Render implements the experiment output contract.
func (r *Fig04Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 4: per-link 95th-pct relative prediction error vs MP history size (p=25)"))
	sb.WriteString(fmt.Sprintf("%-8s %-8s %-8s %-8s %-8s %-10s %-8s\n",
		"history", "median", "q1", "q3", "whisker", "outliers", "max"))
	for _, row := range r.Rows {
		sb.WriteString(fmt.Sprintf("%-8d %-8.3f %-8.3f %-8.3f %-8.3f %-10d %-8.1f\n",
			row.History, row.Box.Median, row.Box.Q1, row.Box.Q3, row.Box.HighWhisker, len(row.Box.Outliers), row.Box.Max))
	}
	sb.WriteString(fmt.Sprintf("best history: %d (paper: 4)\n", r.BestHistory))
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig04Result) Headlines() []Headline {
	return []Headline{{Name: "best-h", Paper: "4", Value: float64(r.BestHistory)}}
}
