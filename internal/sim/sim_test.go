package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netcoord/internal/coord"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/metrics"
	"netcoord/internal/netsim"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
	"netcoord/internal/xrand"
)

func wideAreaTrace(t *testing.T, nodes int, seconds uint64, seed uint64) *trace.Generator {
	t.Helper()
	net, err := netsim.New(netsim.DefaultWideArea(nodes, seed))
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	g, err := trace.NewGenerator(net, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: seconds, Seed: seed})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func mpFactory() filter.Filter {
	f, err := filter.NewMP(filter.DefaultMPConfig())
	if err != nil {
		// Static default config cannot fail validation; keep the factory
		// signature simple.
		return filter.NewNone()
	}
	return f
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Config{Nodes: 1, Vivaldi: vivaldi.DefaultConfig()}); err == nil {
		t.Fatal("one node accepted")
	}
	bad := vivaldi.DefaultConfig()
	bad.CC = 0
	if _, err := NewRunner(Config{Nodes: 4, Vivaldi: bad}); err == nil {
		t.Fatal("invalid vivaldi config accepted")
	}
	broken := func(dim int) (heuristic.Policy, error) {
		return heuristic.NewEnergy(dim, 0, 8) // invalid window
	}
	if _, err := NewRunner(Config{Nodes: 4, Vivaldi: vivaldi.DefaultConfig(), Policy: broken}); err == nil {
		t.Fatal("broken policy factory accepted")
	}
}

func TestStepValidation(t *testing.T) {
	r, err := NewRunner(Config{Nodes: 4, Vivaldi: vivaldi.DefaultConfig()})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if err := r.Step(trace.Sample{From: 9, To: 0, RTT: 50}); err == nil {
		t.Fatal("out-of-range From accepted")
	}
	if err := r.Step(trace.Sample{From: 0, To: 9, RTT: 50}); err == nil {
		t.Fatal("out-of-range To accepted")
	}
	if err := r.Step(trace.Sample{From: 1, To: 1, RTT: 50}); err == nil {
		t.Fatal("self-sample accepted")
	}
}

func TestLostSamplesSkipped(t *testing.T) {
	r, err := NewRunner(Config{Nodes: 2, Vivaldi: vivaldi.DefaultConfig()})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if err := r.Step(trace.Sample{Tick: 1, From: 0, To: 1, Lost: true}); err != nil {
		t.Fatalf("Step lost sample: %v", err)
	}
	if r.Lost() != 1 || r.Samples() != 1 {
		t.Fatalf("Lost=%d Samples=%d", r.Lost(), r.Samples())
	}
	c, err := r.Coordinate(0)
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	if c.Vec.Norm() != 0 {
		t.Fatal("lost sample moved a coordinate")
	}
}

func TestRunConvergesOnWideArea(t *testing.T) {
	const nodes = 24
	r, err := NewRunner(Config{
		Nodes:   nodes,
		Vivaldi: vivaldi.DefaultConfig(),
		Filter:  mpFactory,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	const seconds = 1200
	if err := r.Run(wideAreaTrace(t, nodes, seconds, 5)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Samples() == 0 {
		t.Fatal("no samples processed")
	}
	// Second-half accuracy must be materially better than a random
	// embedding: median relative error well under 0.5 on this easy
	// network.
	sum, err := r.Sys().Summarize(seconds/2, seconds)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if sum.MedianRelErr > 0.35 {
		t.Fatalf("median relative error = %v after convergence", sum.MedianRelErr)
	}
	// And convergence means the second half is better than the first.
	first, err := r.Sys().Summarize(0, seconds/2-1)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if sum.MedianRelErr >= first.MedianRelErr {
		t.Fatalf("no convergence: first half %v, second half %v", first.MedianRelErr, sum.MedianRelErr)
	}
}

func TestMPFilterBeatsNoFilter(t *testing.T) {
	// The core Table I comparison in miniature: identical traces, MP
	// filter vs none; the MP run must be more accurate and more stable.
	const nodes = 24
	const seconds = 1200
	run := func(factory filter.Factory) (relErr, instability float64) {
		r, err := NewRunner(Config{Nodes: nodes, Vivaldi: vivaldi.DefaultConfig(), Filter: factory})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		if err := r.Run(wideAreaTrace(t, nodes, seconds, 11)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		sum, err := r.Sys().Summarize(seconds/2, seconds)
		if err != nil {
			t.Fatalf("Summarize: %v", err)
		}
		return sum.MedianRelErr, sum.MedianInstability
	}
	mpErr, mpInst := run(mpFactory)
	rawErr, rawInst := run(nil)
	if mpErr >= rawErr {
		t.Fatalf("MP median rel err %v not better than raw %v", mpErr, rawErr)
	}
	if mpInst >= rawInst {
		t.Fatalf("MP instability %v not better than raw %v", mpInst, rawInst)
	}
}

func TestEnergyPolicyStabilizesAppCoordinates(t *testing.T) {
	const nodes = 24
	const seconds = 1200
	r, err := NewRunner(Config{
		Nodes:   nodes,
		Vivaldi: vivaldi.DefaultConfig(),
		Filter:  mpFactory,
		Policy: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
		},
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if err := r.Run(wideAreaTrace(t, nodes, seconds, 7)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sysSum, err := r.Sys().Summarize(seconds/2, seconds)
	if err != nil {
		t.Fatalf("Summarize sys: %v", err)
	}
	appSum, err := r.App().Summarize(seconds/2, seconds)
	if err != nil {
		t.Fatalf("Summarize app: %v", err)
	}
	if appSum.MedianInstability >= sysSum.MedianInstability {
		t.Fatalf("app instability %v not below sys %v", appSum.MedianInstability, sysSum.MedianInstability)
	}
	// Accuracy must not collapse: app error within 2x of system error.
	if appSum.MedianRelErr > 2*sysSum.MedianRelErr+0.05 {
		t.Fatalf("app error %v vs sys %v: accuracy collapsed", appSum.MedianRelErr, sysSum.MedianRelErr)
	}
	// And the app level must see far fewer updates than one per
	// observation.
	if appSum.MeanUpdateFraction > 0.5 {
		t.Fatalf("app update fraction %v, want well below 1", appSum.MeanUpdateFraction)
	}
}

func TestRunnerDeterminism(t *testing.T) {
	const nodes = 10
	const seconds = 300
	run := func() []float64 {
		r, err := NewRunner(Config{Nodes: nodes, Vivaldi: vivaldi.DefaultConfig(), Filter: mpFactory})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		if err := r.Run(wideAreaTrace(t, nodes, seconds, 13)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var out []float64
		for i := 0; i < nodes; i++ {
			c, err := r.Coordinate(i)
			if err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			out = append(out, c.Vec...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at component %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestConfidenceAccessor(t *testing.T) {
	r, err := NewRunner(Config{Nodes: 3, Vivaldi: vivaldi.DefaultConfig()})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	c, err := r.Confidence(0)
	if err != nil {
		t.Fatalf("Confidence: %v", err)
	}
	if c != 0 {
		t.Fatalf("initial confidence = %v, want 0", c)
	}
	if _, err := r.Confidence(99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := r.Coordinate(-1); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := r.AppCoordinate(99); err == nil {
		t.Fatal("out-of-range app coordinate accepted")
	}
}

func TestStaticMatrixModeIsStable(t *testing.T) {
	// A1 ablation seed: with a static latency matrix (the original
	// Vivaldi evaluation methodology), even the unfiltered system is
	// accurate and stable — the instability pathology only appears with
	// real observation streams.
	const nodes = 16
	const seconds = 900
	cfg := netsim.DefaultWideArea(nodes, 3)
	cfg.Static = true
	net, err := netsim.New(cfg)
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	g, err := trace.NewGenerator(net, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: seconds})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	r, err := NewRunner(Config{Nodes: nodes, Vivaldi: vivaldi.DefaultConfig()})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if err := r.Run(g); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sum, err := r.Sys().Summarize(seconds/2, seconds)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if sum.MedianRelErr > 0.2 {
		t.Fatalf("static-matrix median rel err = %v, want small", sum.MedianRelErr)
	}
}

// runnerFingerprint captures everything a simulation run produces.
// exact holds what each node computes on its own — final system and
// application coordinates, confidence, the per-node error and movement
// quantiles, update fractions — and must match bit for bit. sums holds
// the per-second instability series and the summaries derived from it:
// each second's value is a float sum over that second's samples in
// arrival order, so reordering a tick may move it by rounding and no
// more.
type runnerFingerprint struct {
	samples, lost, last uint64
	exact               []float64
	sums                []float64
}

func fingerprint(t *testing.T, r *Runner, nodes int, seconds uint64) runnerFingerprint {
	t.Helper()
	fp := runnerFingerprint{samples: r.Samples(), lost: r.Lost(), last: r.LastTick()}
	for i := 0; i < nodes; i++ {
		c, err := r.Coordinate(i)
		if err != nil {
			t.Fatalf("Coordinate(%d): %v", i, err)
		}
		fp.exact = append(fp.exact, c.Vec...)
		fp.exact = append(fp.exact, c.Height)
		a, err := r.AppCoordinate(i)
		if err != nil {
			t.Fatalf("AppCoordinate(%d): %v", i, err)
		}
		fp.exact = append(fp.exact, a.Vec...)
		conf, err := r.Confidence(i)
		if err != nil {
			t.Fatalf("Confidence(%d): %v", i, err)
		}
		fp.exact = append(fp.exact, conf)
	}
	for _, c := range []*metrics.Collector{r.Sys(), r.App()} {
		sum, err := c.Summarize(0, seconds)
		if err != nil {
			t.Fatalf("Summarize: %v", err)
		}
		moves, err := c.PerNodeMovementQuantile(95, 0, seconds)
		if err != nil {
			t.Fatalf("PerNodeMovementQuantile: %v", err)
		}
		fp.exact = append(fp.exact, sum.MedianRelErr, sum.P95RelErrMedian, sum.MeanUpdateFraction)
		fp.exact = append(fp.exact, c.AllErrors(0, seconds)...)
		fp.exact = append(fp.exact, moves...)
		fp.sums = append(fp.sums, sum.MedianInstability, sum.MeanInstability)
		fp.sums = append(fp.sums, c.InstabilitySeries(0, seconds)...)
	}
	return fp
}

// equal reports whether two runs match: exact values bit for bit, sums
// to within a relative 1e-12.
func (a runnerFingerprint) equal(b runnerFingerprint) (string, bool) {
	const sumTol = 1e-12
	if a.samples != b.samples || a.lost != b.lost || a.last != b.last {
		return "stream counters", false
	}
	if len(a.exact) != len(b.exact) || len(a.sums) != len(b.sums) {
		return "fingerprint length", false
	}
	for i := range a.exact {
		if a.exact[i] != b.exact[i] {
			return fmt.Sprintf("exact[%d]: %v vs %v", i, a.exact[i], b.exact[i]), false
		}
	}
	for i := range a.sums {
		if math.Abs(a.sums[i]-b.sums[i]) > sumTol*math.Abs(a.sums[i]) {
			return fmt.Sprintf("sums[%d]: %v vs %v", i, a.sums[i], b.sums[i]), false
		}
	}
	return "", true
}

// policyFactories are the three deployed heuristics the determinism
// matrix exercises (Direct is additionally the NewRunner default).
func policyFactories() map[string]PolicyFactory {
	return map[string]PolicyFactory{
		"direct": func(dim int) (heuristic.Policy, error) { return heuristic.NewDirect(dim) },
		"energy": func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
		},
		"relative": func(dim int) (heuristic.Policy, error) {
			return heuristic.NewRelative(dim, heuristic.DefaultWindow, heuristic.DefaultRelativeEpsilon)
		},
	}
}

// tickPermuted returns samples with each tick's run shuffled by a seeded
// generator; the ticks themselves stay in order.
func tickPermuted(samples []trace.Sample, seed int64) []trace.Sample {
	out := append([]trace.Sample(nil), samples...)
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < len(out); {
		hi := lo
		for hi < len(out) && out[hi].Tick == out[lo].Tick {
			hi++
		}
		tick := out[lo:hi]
		rng.Shuffle(len(tick), func(i, j int) { tick[i], tick[j] = tick[j], tick[i] })
		lo = hi
	}
	return out
}

// TestTickOrderIndependence pins what the tick barrier buys: a sample
// mutates only its From node and reads remotes from the tick-start
// snapshot, so when every node samples at most once per tick (the
// generator's shape) the order of samples within a tick cannot change
// the run. Across seeds, populations, churn and all three policies, a
// run over the shuffled trace must reproduce the in-order run: every
// node's state and metric stream bit for bit, the per-second sums to
// within the rounding their addition order allows.
func TestTickOrderIndependence(t *testing.T) {
	const seconds = 240
	for _, seed := range []uint64{3, 17} {
		for _, nodes := range []int{12, 33} {
			for _, churn := range []bool{false, true} {
				for name, policy := range policyFactories() {
					name := fmt.Sprintf("seed%d_n%d_churn%v_%s", seed, nodes, churn, name)
					t.Run(name, func(t *testing.T) {
						net, err := netsim.New(netsim.DefaultWideArea(nodes, seed))
						if err != nil {
							t.Fatalf("netsim.New: %v", err)
						}
						gcfg := trace.GeneratorConfig{
							IntervalTicks: 1,
							DurationTicks: seconds,
							Seed:          seed + 1,
						}
						if churn {
							gcfg.JoinSpreadTicks = seconds * 3 / 4
						}
						g, err := trace.NewGenerator(net, gcfg)
						if err != nil {
							t.Fatalf("NewGenerator: %v", err)
						}
						samples := trace.Collect(g, 0)
						run := func(samples []trace.Sample) runnerFingerprint {
							vcfg := vivaldi.DefaultConfig()
							vcfg.Seed = seed + 2
							r, err := NewRunner(Config{
								Nodes:   nodes,
								Vivaldi: vcfg,
								Filter:  mpFactory,
								Policy:  policy,
							})
							if err != nil {
								t.Fatalf("NewRunner: %v", err)
							}
							if err := r.Run(trace.NewSliceSource(samples)); err != nil {
								t.Fatalf("Run: %v", err)
							}
							return fingerprint(t, r, nodes, seconds)
						}
						inOrder := run(samples)
						shuffled := run(tickPermuted(samples, int64(seed)))
						if msg, ok := inOrder.equal(shuffled); !ok {
							t.Fatalf("shuffling samples within ticks changed the run: %s", msg)
						}
					})
				}
			}
		}
	}
}

// TestDuplicateFromProcessesInTraceOrder covers the file-replay case the
// generator never produces: several samples from one node within one
// tick. The node's own state is live, so its second sample starts from
// what its first one left, while every remote is still read from the
// tick-start snapshot. The oracle is a bare vivaldi.Node fed the same
// observations in trace order against the initial remotes.
func TestDuplicateFromProcessesInTraceOrder(t *testing.T) {
	vcfg := vivaldi.DefaultConfig()
	vcfg.Seed = 99
	bare := func(i int) *vivaldi.Node {
		c := vcfg
		c.Seed = xrand.Hash64(vcfg.Seed, uint64(i))
		n, err := vivaldi.New(c)
		if err != nil {
			t.Fatalf("vivaldi.New: %v", err)
		}
		return n
	}
	run := func(samples ...trace.Sample) coord.Coordinate {
		r, err := NewRunner(Config{Nodes: 3, Vivaldi: vcfg})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		if err := r.Run(trace.NewSliceSource(samples)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		c, err := r.Coordinate(0)
		if err != nil {
			t.Fatalf("Coordinate: %v", err)
		}
		return c
	}
	first := trace.Sample{From: 0, To: 1, RTT: 80}
	between := trace.Sample{From: 1, To: 0, RTT: 80} // moves node 1 mid-tick; node 0 must not see it
	second := trace.Sample{From: 0, To: 1, RTT: 30}

	want := bare(0)
	for _, s := range []trace.Sample{first, second} {
		if _, err := want.Update(s.RTT, bare(s.To).Coordinate(), vcfg.InitialError); err != nil {
			t.Fatalf("oracle Update: %v", err)
		}
	}
	got := run(first, between, second)
	if !got.Vec.Equal(want.CoordinateRef().Vec) || got.Height != want.CoordinateRef().Height {
		t.Fatalf("node 0 = %+v, oracle in trace order = %+v", got, want.Coordinate())
	}
	if swapped := run(second, between, first); swapped.Vec.Equal(got.Vec) {
		t.Fatal("swapping one node's two samples changed nothing: the order within a tick is not being honoured")
	}
}

// TestStepSteadyStateZeroAllocs locks in the allocation discipline the
// package comment states: once filters are warm, windows are full, and metric storage
// is reserved, Step allocates nothing — with the paper's deployed
// configuration (MP filter + ENERGY policy), fire events included.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	const nodes = 32
	const ticks = 260
	net, err := netsim.New(netsim.DefaultWideArea(nodes, 8))
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	g, err := trace.NewGenerator(net, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: ticks, Seed: 9})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	samples := trace.Collect(g, 0)
	if len(samples) < 4000 {
		t.Fatalf("only %d samples generated", len(samples))
	}
	vcfg := vivaldi.DefaultConfig()
	vcfg.Seed = 10
	r, err := NewRunner(Config{
		Nodes:   nodes,
		Vivaldi: vcfg,
		Filter:  mpFactory,
		Policy: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
		},
		ExpectedTicks:          ticks,
		ExpectedSamplesPerNode: ticks,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	warm := len(samples) / 2
	for _, s := range samples[:warm] {
		if err := r.Step(s); err != nil {
			t.Fatalf("warm-up Step: %v", err)
		}
	}
	i := warm
	allocs := testing.AllocsPerRun(2000, func() {
		if err := r.Step(samples[i]); err != nil {
			t.Fatalf("Step: %v", err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocated %v per run (the hot loop must be allocation-free)", allocs)
	}
}

func BenchmarkRunnerStep(b *testing.B) {
	const nodes = 100
	net, err := netsim.New(netsim.DefaultWideArea(nodes, 1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(net, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(Config{Nodes: nodes, Vivaldi: vivaldi.DefaultConfig(), Filter: mpFactory})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, ok := g.Next()
		if !ok {
			b.Fatal("trace exhausted")
		}
		if err := r.Step(s); err != nil {
			b.Fatal(err)
		}
	}
}
