package netcoord

import (
	"fmt"
	"strconv"
	"testing"

	"netcoord/internal/heuristic"
	"netcoord/internal/netsim"
	"netcoord/internal/sim"
	"netcoord/internal/trace"
	"netcoord/internal/xrand"
)

// TestClientMatchesRunner is the one-pipeline differential: the public
// Client and the paper reproduction are the same program. A generated
// trace is replayed through N Clients under the runner's tick-barrier
// rule — remote state read from a copy published when the tick began —
// and every node's system coordinate, application coordinate and error
// weight must equal sim.Runner's exactly.
func TestClientMatchesRunner(t *testing.T) {
	const (
		nodes = 10
		ticks = 200
		seed  = 20050502
	)
	net, err := netsim.New(netsim.DefaultWideArea(nodes, seed))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(net, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: ticks, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	samples := trace.Collect(gen, 0)

	for kind := PolicyEnergy; kind <= PolicyDirect; kind++ {
		for _, filtered := range []bool{true, false} {
			for _, height := range []bool{false, true} {
				cfg := Config{Policy: kind, DisableFilter: !filtered, UseHeight: height, Seed: seed + 2}
				if height {
					cfg.HeightMin = 0.1
				}
				t.Run(fmt.Sprintf("policy=%d/filter=%v/height=%v", kind, filtered, height), func(t *testing.T) {
					clientsMatchRunner(t, cfg, nodes, samples)
				})
			}
		}
	}
}

func clientsMatchRunner(t *testing.T, cfg Config, nodes int, samples []trace.Sample) {
	resolved, vcfg, err := resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := buildFilterFactory(resolved)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{
		Nodes:   nodes,
		Vivaldi: vcfg,
		Filter:  factory,
		Policy:  func(int) (heuristic.Policy, error) { return buildPolicy(resolved) },
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nodes)
	published := make([]State, nodes)
	for i := range clients {
		c := cfg
		c.Seed = xrand.Hash64(cfg.Seed, uint64(i)) // the runner's per-node seed
		if clients[i], err = NewClient(c); err != nil {
			t.Fatal(err)
		}
	}
	publish := func() {
		for i, c := range clients {
			published[i] = State{Sys: c.Coordinate(), Error: c.Error()}
		}
	}
	publish()

	var tick uint64
	var moved, appChanges int
	for _, s := range samples {
		if err := runner.Step(s); err != nil {
			t.Fatalf("Step %+v: %v", s, err)
		}
		if s.Tick > tick {
			publish()
			tick = s.Tick
		}
		if s.Lost {
			continue
		}
		remote := published[s.To]
		st, err := clients[s.From].Observe(strconv.Itoa(s.To), s.RTT, remote.Sys, remote.Error)
		if err != nil {
			t.Fatalf("Observe %+v: %v", s, err)
		}
		if st.AppChanged {
			appChanges++
		}
	}

	for i, c := range clients {
		sys, _ := runner.Coordinate(i)
		app, _ := runner.AppCoordinate(i)
		conf, _ := runner.Confidence(i)
		if got := c.Coordinate(); !got.Equal(sys) {
			t.Errorf("node %d system coordinate: client %v, runner %v", i, got, sys)
		}
		if got := c.AppCoordinate(); !got.Equal(app) {
			t.Errorf("node %d application coordinate: client %v, runner %v", i, got, app)
		}
		if got := c.Confidence(); got != conf {
			t.Errorf("node %d confidence: client %v, runner %v", i, got, conf)
		}
		if !sys.Equal(Origin(sys.Dim())) {
			moved++
		}
	}
	if moved != nodes || appChanges == 0 {
		t.Fatalf("vacuous run: %d of %d nodes left the origin, %d application changes", moved, nodes, appChanges)
	}
}
