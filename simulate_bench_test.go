// Simulation-engine benchmarks: the repo's perf trajectory for the hot
// reproduction loop. BenchmarkStep is the allocation gate (0 allocs/op
// at steady state, enforced by CI and by TestStepSteadyStateZeroAllocs);
// BenchmarkSimulateN256 / BenchmarkSimulateN1024 measure the public
// facade end to end — a run steps on one goroutine while the trace is
// synthesized a block ahead on a second, so at -cpu 2 trace generation
// drops off the critical path. Those two run 90 s: no window ever fills
// twice and no node has more than 90 samples to summarize.
// BenchmarkSimulatePaper is the sim-paper workload's run (128 nodes,
// 2400 s), where change-point restarts and the closing Summarize of the
// two collectors (side by side at -cpu 2) are a measurable share. At
// -cpu 2 its step goroutine is the critical path, and most of it is
// ENERGY's window sums (window.dist, slideSums, initSums), then the
// per-link MP filter behind the simulator's dense filter.Dense table;
// the closing Summarize selects each node's two error quantiles from
// its 1 200 samples rather than sorting them.
package netcoord

import (
	"testing"

	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/netsim"
	"netcoord/internal/sim"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
)

// benchStepSamples pregenerates a trace so the benchmark loop measures
// Step alone, not trace synthesis.
func benchStepSamples(b *testing.B, nodes int, ticks uint64) []trace.Sample {
	b.Helper()
	net, err := netsim.New(netsim.DefaultWideArea(nodes, 1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(net, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: ticks, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return trace.Collect(g, 0)
}

func benchMPFactory() filter.Filter {
	f, err := filter.NewMP(filter.DefaultMPConfig())
	if err != nil {
		return filter.NewNone() // unreachable: defaults validate
	}
	return f
}

// BenchmarkStep measures the steady-state per-sample cost of the
// deployed configuration (MP filter + ENERGY policy) and reports its
// allocation count — which must be zero.
func BenchmarkStep(b *testing.B) {
	const nodes = 256
	// Warm-up must cover every node's full neighbor round-robin (nodes-1
	// ticks) so the measured loop never instantiates a fresh per-link
	// filter; 2/3 of 600 ticks = 400 > 255.
	const ticks = 600
	samples := benchStepSamples(b, nodes, ticks)
	r, err := sim.NewRunner(sim.Config{
		Nodes:   nodes,
		Vivaldi: vivaldi.DefaultConfig(),
		Filter:  benchMPFactory,
		Policy: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
		},
		ExpectedTicks: ticks,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm to steady state: filters primed on every link, windows full,
	// every scratch buffer allocated.
	warm := len(samples) * 2 / 3
	for _, s := range samples[:warm] {
		if err := r.Step(s); err != nil {
			b.Fatal(err)
		}
	}
	// Reserve metric storage for exactly the appends the measured loop
	// will perform, so growth allocations cannot pollute the gate.
	perNode := warm/nodes + b.N/nodes + 16
	r.Sys().Reserve(ticks, perNode)
	r.App().Reserve(ticks, perNode)
	rest := samples[warm:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Step(rest[i%len(rest)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimulate runs the public facade end to end at the given scale.
func benchSimulate(b *testing.B, nodes, seconds int, seed uint64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(SimulationConfig{
			Nodes:   nodes,
			Seconds: seconds,
			Seed:    seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Samples == 0 {
			b.Fatal("no samples processed")
		}
		b.ReportMetric(float64(res.Samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	}
}

func BenchmarkSimulateN256(b *testing.B) {
	benchSimulate(b, 256, 90, 20050502)
}

func BenchmarkSimulateN1024(b *testing.B) {
	benchSimulate(b, 1024, 90, 20050502)
}

func BenchmarkSimulatePaper(b *testing.B) {
	benchSimulate(b, 128, 2400, 1)
}
