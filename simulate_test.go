package netcoord

import "testing"

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimulationConfig{Nodes: 2, Seconds: 600}); err == nil {
		t.Fatal("tiny node count accepted")
	}
	if _, err := Simulate(SimulationConfig{Nodes: 16, Seconds: 10}); err == nil {
		t.Fatal("tiny duration accepted")
	}
	if _, err := Simulate(SimulationConfig{Nodes: 16, Seconds: 600, SampleEverySeconds: -5}); err == nil {
		t.Fatal("negative sampling period accepted (only 0 means 1 s)")
	}
	bad := SimulationConfig{Nodes: 16, Seconds: 600}
	bad.Client = DefaultConfig()
	bad.Client.FilterPercentile = 200
	if _, err := Simulate(bad); err == nil {
		t.Fatal("bad client config accepted")
	}
}

func TestSimulateDefaultsReproducePaperShape(t *testing.T) {
	res, err := Simulate(SimulationConfig{Nodes: 24, Seconds: 900, Seed: 5})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Samples == 0 {
		t.Fatal("no samples processed")
	}
	// Converged accuracy, and the app stream far more stable than the
	// system stream at comparable accuracy.
	if res.System.MedianRelErr > 0.3 {
		t.Fatalf("system median rel err = %v", res.System.MedianRelErr)
	}
	if res.App.MedianInstability >= res.System.MedianInstability {
		t.Fatalf("app instability %v not below system %v",
			res.App.MedianInstability, res.System.MedianInstability)
	}
	if res.App.UpdatesPerSecond >= res.System.UpdatesPerSecond {
		t.Fatal("app updates not suppressed")
	}
}

func TestSimulateFilterComparison(t *testing.T) {
	// The facade must let a user reproduce the paper's core comparison
	// in a few lines.
	base := SimulationConfig{Nodes: 24, Seconds: 900, Seed: 6}
	withFilter, err := Simulate(base)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	noFilter := base
	noFilter.Client = DefaultConfig()
	noFilter.Client.DisableFilter = true
	without, err := Simulate(noFilter)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if withFilter.System.MedianRelErr >= without.System.MedianRelErr {
		t.Fatalf("filtered err %v >= unfiltered %v",
			withFilter.System.MedianRelErr, without.System.MedianRelErr)
	}
	if withFilter.System.MedianInstability >= without.System.MedianInstability {
		t.Fatalf("filtered instability %v >= unfiltered %v",
			withFilter.System.MedianInstability, without.System.MedianInstability)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimulationConfig{Nodes: 12, Seconds: 300, Seed: 7}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if a != b {
		t.Fatalf("same-seed simulations diverged:\n%+v\n%+v", a, b)
	}
}

func TestSimulateWithChurn(t *testing.T) {
	res, err := Simulate(SimulationConfig{Nodes: 16, Seconds: 600, Seed: 8, Churn: true})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Samples == 0 {
		t.Fatal("no samples under churn")
	}
	// Fewer samples than the no-churn run (late joiners skip early ticks).
	full, err := Simulate(SimulationConfig{Nodes: 16, Seconds: 600, Seed: 8})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Samples >= full.Samples {
		t.Fatalf("churn run processed %d samples vs %d without churn", res.Samples, full.Samples)
	}
}

// TestSimulateSparseClientConfig pins that a Client naming only the
// fields it changes means "DefaultConfig, except these", for every
// field — not the whole default pipeline whenever Dimension and Policy
// happen to be unset.
func TestSimulateSparseClientConfig(t *testing.T) {
	base := SimulationConfig{Nodes: 16, Seconds: 300, Seed: 9}
	def, err := Simulate(base)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	explicit := base
	explicit.Client = DefaultConfig()
	if got, err := Simulate(explicit); err != nil || got != def {
		t.Fatalf("zero Client = %+v, DefaultConfig() = %+v (err %v)", def, got, err)
	}
	for name, set := range map[string]func(*Config){
		"DisableFilter": func(c *Config) { c.DisableFilter = true },
		"WindowSize":    func(c *Config) { c.WindowSize = 8 },
		"ErrorMargin":   func(c *Config) { c.ErrorMargin = 5 },
		"FilterHistory": func(c *Config) { c.FilterHistory = 16 },
	} {
		sparse, full := base, base
		set(&sparse.Client)
		full.Client = DefaultConfig()
		set(&full.Client)
		got, err := Simulate(sparse)
		if err != nil {
			t.Fatalf("%s: sparse Simulate: %v", name, err)
		}
		want, err := Simulate(full)
		if err != nil {
			t.Fatalf("%s: full Simulate: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: sparse Client ran %+v, DefaultConfig()+override ran %+v", name, got, want)
		}
		if got == def {
			t.Fatalf("%s: override had no effect on the run", name)
		}
	}
}

// TestSimulatePaperGolden pins the paper-scale run (the sim-paper
// workload's input, which lives outside `go test ./...`) bit for bit.
// The literals were recorded at commit 7ba5a6d; a change that moves any
// of them has changed what the simulator computes, not how fast.
func TestSimulatePaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three 128-node, 2400 s runs")
	}
	golden := map[uint64]SimulationResult{
		1: {
			Samples: 307200,
			System:  StreamSummary{MedianRelErr: 0.05056000319382825, P95RelErr: 0.47014679388537584, MedianInstability: 105.02966081003618, UpdatesPerSecond: 0.9981575520833333},
			App:     StreamSummary{MedianRelErr: 0.047444587774268854, P95RelErr: 0.467883033609984, MedianInstability: 7.4385274891256365, UpdatesPerSecond: 0.022526041666666666},
		},
		2: {
			Samples: 307200,
			System:  StreamSummary{MedianRelErr: 0.04695049101215541, P95RelErr: 0.47020610641178207, MedianInstability: 100.54716993924147, UpdatesPerSecond: 0.9978971354166667},
			App:     StreamSummary{MedianRelErr: 0.04547443518656613, P95RelErr: 0.4777275749418793, MedianInstability: 7.995153489507352, UpdatesPerSecond: 0.022630208333333332},
		},
		3: {
			Samples: 307200,
			System:  StreamSummary{MedianRelErr: 0.04752163217807234, P95RelErr: 0.48475081956517596, MedianInstability: 98.53694459870341, UpdatesPerSecond: 0.9979947916666667},
			App:     StreamSummary{MedianRelErr: 0.04426522504602836, P95RelErr: 0.47360921370883236, MedianInstability: 7.03300779005261, UpdatesPerSecond: 0.022063802083333334},
		},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		got, err := Simulate(SimulationConfig{Nodes: 128, Seconds: 2400, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != golden[seed] {
			t.Errorf("seed %d:\n got %#v\nwant %#v", seed, got, golden[seed])
		}
	}
}
