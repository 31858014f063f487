package heuristic

import (
	"math"

	"netcoord/internal/coord"
)

// DefaultRankSumZ is the conventional 5% significance threshold for the
// rank-sum baseline policy.
const DefaultRankSumZ = 1.96

// RankSum is the one-dimensional baseline policy (an extension beyond
// the paper's four heuristics): the Kifer-style two-window scheme with a
// Wilcoxon rank-sum test over each point's distance from the start
// centroid. Structurally identical to ENERGY — same windows, same
// centroid publication — differing only in the statistical test, so the
// extension experiment isolates exactly the value of a genuinely
// multi-dimensional statistic.
type RankSum struct{ windowed }

// NewRankSum builds the RANKSUM policy with window size k and |z|
// threshold z.
func NewRankSum(dim, k int, z float64) (*RankSum, error) {
	w, err := newWindowed(dim, k, z, "rank-sum")
	if err != nil {
		return nil, err
	}
	return &RankSum{w}, nil
}

// Observe implements Policy.
func (r *RankSum) Observe(obs Observation) (coord.Coordinate, bool, error) {
	test, changed, err := r.admit(obs.Sys)
	if !test {
		return r.app, changed, err
	}
	z, err := r.pair.RankSum()
	return r.settle(math.Abs(z) > r.threshold, err)
}

// Name implements Policy.
func (*RankSum) Name() string { return "ranksum" }

// Interface conformance.
var _ Policy = (*RankSum)(nil)
