package experiments

import (
	"testing"

	"netcoord/internal/heuristic"
	"netcoord/internal/sim"
)

// BenchmarkSweepGrid measures a Figure 8-style threshold sweep end to
// end — trace synthesis, simulation, and summarization for every grid
// point. sweep runs min(points, GOMAXPROCS) whole simulations at once,
// so -cpu is the only thing that changes how it runs.
func BenchmarkSweepGrid(b *testing.B) {
	scale := Scale{Nodes: 24, DurationTicks: 300, IntervalTicks: 1, Seed: 20050502}
	params := []float64{1, 2, 4, 8, 16, 32}
	build := func(tau float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, tau)
		}
	}
	for i := 0; i < b.N; i++ {
		pts, err := sweep(scale, params, build)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(params) {
			b.Fatalf("got %d points", len(pts))
		}
	}
}
