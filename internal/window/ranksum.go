package window

import (
	"fmt"
	"math"

	"netcoord/internal/stats"
	"netcoord/internal/vec"
)

// RankSumDetector adapts the one-dimensional Wilcoxon rank-sum test —
// the kind of "well-known statistical test" Kifer, Ben-David and Gehrke
// built their stream change detector on — to coordinate streams by
// projecting both windows onto a single dimension: each point's distance
// from the start window's centroid.
//
// The paper notes that the standard tests "are all for one-dimensional
// data" and introduces ENERGY and RELATIVE instead; this detector is the
// natural 1-D baseline they are implicitly compared against. Its known
// blind spot — covered by unit tests and the extension experiment — is a
// *direction-only* change: if the coordinate cloud moves to a new
// location equidistant from C(Ws), the projected distribution barely
// shifts and the test stays silent, while the energy statistic fires.
type RankSumDetector struct {
	// Z is the |z|-score threshold; 1.96 rejects at the 5% level.
	Z float64
}

// NewRankSumDetector validates and builds a RankSumDetector.
func NewRankSumDetector(z float64) (*RankSumDetector, error) {
	if !(z > 0) {
		return nil, fmt.Errorf("window: rank-sum threshold %v, want > 0", z)
	}
	return &RankSumDetector{Z: z}, nil
}

// Diverged implements Detector.
func (d *RankSumDetector) Diverged(p *Pair) (bool, error) {
	if !p.Full() {
		return false, nil
	}
	center, err := p.StartCentroid()
	if err != nil {
		return false, fmt.Errorf("rank-sum detector: %w", err)
	}
	project := func(points []vec.Vector) ([]float64, error) {
		out := make([]float64, len(points))
		for i, pt := range points {
			dd, err := pt.Dist(center)
			if err != nil {
				return nil, err
			}
			out[i] = dd
		}
		return out, nil
	}
	a, err := project(p.Start())
	if err != nil {
		return false, fmt.Errorf("rank-sum detector: %w", err)
	}
	b, err := project(p.Current())
	if err != nil {
		return false, fmt.Errorf("rank-sum detector: %w", err)
	}
	z, err := stats.RankSum(a, b)
	if err != nil {
		return false, fmt.Errorf("rank-sum detector: %w", err)
	}
	return math.Abs(z) > d.Z, nil
}

// Interface conformance.
var _ Detector = (*RankSumDetector)(nil)
