package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// summary is one metric of one benchmark at one GOMAXPROCS, over every
// pair.
type summary struct {
	Package string `json:"package"`
	Name    string `json:"name"`
	Procs   int    `json:"procs"`
	Metric  string `json:"metric"`
	// Better is "lower" or "higher": rates (units ending in /s) are
	// better higher, everything else lower.
	Better string `json:"better"`
	Base   spread `json:"base"`
	Head   spread `json:"head"`
	// Delta is the change's median relative to the base's: -0.1 is 10 %
	// below it.
	Delta float64 `json:"delta"`
	// Change is the quartiles of the per-pair changes, head/base - 1
	// (head - base where a base value is 0), that verdict judges.
	Change spread `json:"change"`
	// Wins is in how many of the N pairs that ran the metric on both
	// sides the change did better than the base.
	Wins int `json:"wins"`
	N    int `json:"n"`
	// HeadFirstWins is in how many of the HeadFirstN pairs in which the
	// change ran first it did better. Set beside Wins and N it shows an
	// order effect: a change that wins only when it runs second is the
	// machine's doing, not the code's.
	HeadFirstWins int `json:"head_first_wins"`
	HeadFirstN    int `json:"head_first_n"`
	// Verdict is "better", "worse" or "level"; see verdict.
	Verdict string `json:"verdict"`
}

// spread is one side's values of a metric across the pairs.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// key names one summary row.
type key struct {
	pkg, name string
	procs     int
	metric    string
}

// summarize groups the runs' results by package, benchmark, procs and
// metric, pairs each base value with the change's from the same pair,
// and reduces every group to a summary row, in a stable order. A
// benchmark that ran on one side only is an error that names it: left
// out of the summary without a word, it would read as one the change
// did not touch.
func summarize(runs []run) ([]summary, error) {
	type sides struct{ base, head map[int]float64 }
	groups := map[key]*sides{}
	ranOn := map[key]map[string]bool{}     // keyed with no metric: the benchmark itself
	headFirst := map[string]map[int]bool{} // package, pair: the change ran first
	for _, r := range runs {
		if r.Side == sideHead && r.First {
			if headFirst[r.Package] == nil {
				headFirst[r.Package] = map[int]bool{}
			}
			headFirst[r.Package][r.Pair] = true
		}
		for _, res := range r.Results {
			b := key{r.Package, res.Name, res.Procs, ""}
			if ranOn[b] == nil {
				ranOn[b] = map[string]bool{}
			}
			ranOn[b][r.Side] = true
			for metric, v := range res.Metrics {
				k := key{r.Package, res.Name, res.Procs, metric}
				g := groups[k]
				if g == nil {
					g = &sides{map[int]float64{}, map[int]float64{}}
					groups[k] = g
				}
				if r.Side == sideBase {
					g.base[r.Pair] = v
				} else {
					g.head[r.Pair] = v
				}
			}
		}
	}
	var unpaired []string
	for b, sides := range ranOn {
		if !sides[sideBase] || !sides[sideHead] {
			side := sideBase
			if sides[sideHead] {
				side = sideHead
			}
			unpaired = append(unpaired, fmt.Sprintf("%s %s-%d ran on the %s side only", b.pkg, b.name, b.procs, side))
		}
	}
	if len(unpaired) > 0 {
		slices.Sort(unpaired)
		return nil, fmt.Errorf("unpaired: %s", strings.Join(unpaired, "; "))
	}
	var out []summary
	for k, g := range groups {
		var base, head, baseHF, headHF []float64
		for p, b := range g.base {
			if h, ok := g.head[p]; ok {
				base, head = append(base, b), append(head, h)
				if headFirst[k.pkg][p] {
					baseHF, headHF = append(baseHF, b), append(headHF, h)
				}
			}
		}
		if len(base) == 0 {
			continue // a metric one side alone reports, such as one the change adds
		}
		lower := !strings.HasSuffix(k.metric, "/s")
		ch := changes(base, head)
		s := summary{
			Package: k.pkg, Name: k.name, Procs: k.procs, Metric: k.metric,
			Better: "lower", Base: spreadOf(base), Head: spreadOf(head),
			Change: spreadOf(ch),
			Wins:   wins(base, head, lower), N: len(base),
			HeadFirstWins: wins(baseHF, headHF, lower), HeadFirstN: len(baseHF),
		}
		if !lower {
			s.Better = "higher"
		}
		if s.Base.Median != 0 {
			s.Delta = s.Head.Median/s.Base.Median - 1
		}
		s.Verdict = verdict(ch, lower)
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b summary) int {
		return cmp.Or(cmp.Compare(a.Package, b.Package), cmp.Compare(a.Name, b.Name),
			cmp.Compare(a.Procs, b.Procs), cmp.Compare(a.Metric, b.Metric))
	})
	return out, nil
}

// spreadOf is the quartiles of xs, which must not be empty.
func spreadOf(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	return spread{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// quantile is the q-quantile of the sorted, non-empty s, interpolated
// linearly between the two nearest ranks (R's type 7, numpy's default).
func quantile(s []float64, q float64) float64 {
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// wins counts the pairs in which head did better than base: lower when
// lower is better, higher otherwise. A tie is no win.
func wins(base, head []float64, lower bool) int {
	n := 0
	for i := range base {
		if lower && head[i] < base[i] || !lower && head[i] > base[i] {
			n++
		}
	}
	return n
}

// changes is each pair's change, head/base - 1: a drift that slows
// both runs of a pair alike cancels out of it. Where any base value is
// 0 (an allocation count, say) every change is head - base instead.
func changes(base, head []float64) []float64 {
	out := make([]float64, len(base))
	relative := !slices.Contains(base, 0)
	for i := range base {
		if out[i] = head[i] - base[i]; relative {
			out[i] = head[i]/base[i] - 1
		}
	}
	return out
}

// verdict judges the per-pair changes: "better" when at least 9 pairs
// in 10 moved the better way and their median change is larger than
// their interquartile range, "worse" when as many moved the worse way
// by as much, and "level" otherwise.
func verdict(changes []float64, lower bool) string {
	sign := 1.0 // a gain is positive
	if lower {
		sign = -1
	}
	up, down := 0, 0
	for _, c := range changes {
		switch {
		case sign*c > 0:
			up++
		case sign*c < 0:
			down++
		}
	}
	s := spreadOf(changes)
	gain, iqr, n := sign*s.Median, s.Q3-s.Q1, len(changes)
	switch {
	case 10*up >= 9*n && gain > iqr:
		return "better"
	case 10*down >= 9*n && -gain > iqr:
		return "worse"
	default:
		return "level"
	}
}
