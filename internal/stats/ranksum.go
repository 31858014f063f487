package stats

import (
	"math"
	"sort"
)

// RankSum computes the Wilcoxon/Mann-Whitney rank-sum z statistic for two
// one-dimensional samples. Kifer, Ben-David and Gehrke's change-detection
// framework — the origin of the paper's two-window scheme — uses standard
// tests like this one for one-dimensional streams; the paper generalizes
// to multi-dimensional coordinates with RELATIVE and ENERGY. We implement
// rank-sum both as the 1-D baseline statistic (window.Pair.RankSum) and
// to document the lineage.
//
// The returned value is the normal-approximation z score of sample a's
// rank sum (ties handled by midranks). |z| > 1.96 rejects "same
// distribution" at the 5% level.
func RankSum(a, b []float64) (float64, error) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 0, ErrEmpty
	}
	type tagged struct {
		v    float64
		from int // 0 = a, 1 = b
	}
	all := make([]tagged, 0, n1+n2)
	for _, v := range a {
		all = append(all, tagged{v: v, from: 0})
	}
	for _, v := range b {
		all = append(all, tagged{v: v, from: 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign midranks, accumulating the tie-correction term.
	ranks := make([]float64, len(all))
	var tieCorrection float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}

	var rankSumA float64
	for i, tg := range all {
		if tg.from == 0 {
			rankSumA += ranks[i]
		}
	}

	fn1, fn2 := float64(n1), float64(n2)
	n := fn1 + fn2
	meanA := fn1 * (n + 1) / 2
	variance := fn1 * fn2 / 12 * ((n + 1) - tieCorrection/(n*(n-1)))
	if variance <= 0 {
		// All values tied: no evidence of difference.
		return 0, nil
	}
	return (rankSumA - meanA) / math.Sqrt(variance), nil
}
