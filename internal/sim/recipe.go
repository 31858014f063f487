package sim

import (
	"fmt"

	"netcoord/internal/filter"
	"netcoord/internal/netsim"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
)

// Recipe is one synthetic run: Nodes hosts on a seeded network, a trace
// generated from it, and a Runner replaying that trace. It is the one
// place where a synthetic run's inputs are derived. With s = Seed, the
// network is seeded with s, the trace generator with s+1 and Vivaldi
// with s+2. The network is netsim.DefaultWideArea unless Base names
// another one, and EditNetwork can edit it. Two recipes that differ
// only in Filter, Policy or Vivaldi replay the same trace bit for bit,
// which is how the paper compares configurations. To change the network
// every synthetic run uses, change the default here.
type Recipe struct {
	// Nodes is the population size.
	Nodes int
	// Seed fixes the network, the trace and every node's randomness.
	Seed uint64
	// IntervalTicks is the per-node sampling period and DurationTicks
	// the trace length, in seconds. JoinSpreadTicks, when > 0, spreads
	// the joins of every node but node 0 over [0, JoinSpreadTicks).
	IntervalTicks   uint64
	DurationTicks   uint64
	JoinSpreadTicks uint64
	// Base builds the network the run starts from; nil is
	// netsim.DefaultWideArea.
	Base func(nodes int, seed uint64) netsim.Config
	// EditNetwork edits the base network before it is built; nil keeps it.
	EditNetwork func(*netsim.Config)
	// Vivaldi configures every node; the zero value is
	// vivaldi.DefaultConfig(). Its Seed is ignored: the recipe derives it.
	Vivaldi vivaldi.Config
	// Filter and Policy are Config's.
	Filter filter.Factory
	Policy PolicyFactory
}

// Validate checks that the recipe is a run worth measuring: at least 4
// nodes (one per region of the wide-area network), at least 60 ticks
// (the metrics read the second half) and an interval of at least 1.
// Run and Replay apply it before they build anything, so a rejected
// recipe costs no network and no trace. Network, Trace and Start leave
// it to their callers, whose traces need not be measured runs: ncgen
// writes 30-s files, and Figure 6 steps a 3-node cluster.
func (r Recipe) Validate() error {
	if r.Nodes < 4 {
		return fmt.Errorf("sim: %d nodes, want >= 4", r.Nodes)
	}
	if r.DurationTicks < 60 {
		return fmt.Errorf("sim: duration %d ticks, want >= 60", r.DurationTicks)
	}
	if r.IntervalTicks < 1 {
		return fmt.Errorf("sim: interval %d ticks, want >= 1", r.IntervalTicks)
	}
	return nil
}

// Network builds the run's network.
func (r Recipe) Network() (*netsim.Network, error) {
	base := r.Base
	if base == nil {
		base = netsim.DefaultWideArea
	}
	cfg := base(r.Nodes, r.Seed)
	if r.EditNetwork != nil {
		// A copy: handing &cfg itself to an unknown function would move
		// cfg to the heap on every run, edited or not.
		edited := cfg
		r.EditNetwork(&edited)
		cfg = edited
	}
	return netsim.New(cfg)
}

// Trace builds the run's network and its trace generator.
func (r Recipe) Trace() (*trace.Generator, error) {
	net, err := r.Network()
	if err != nil {
		return nil, err
	}
	return trace.NewGenerator(net, trace.GeneratorConfig{
		IntervalTicks:   r.IntervalTicks,
		DurationTicks:   r.DurationTicks,
		JoinSpreadTicks: r.JoinSpreadTicks,
		Seed:            r.Seed + 1,
	})
}

// Start builds the run's trace generator and a runner for it, for
// callers that step the trace themselves.
func (r Recipe) Start() (*Runner, *trace.Generator, error) {
	gen, err := r.Trace() // refuses a zero interval before runner() divides by it
	if err != nil {
		return nil, nil, err
	}
	runner, err := r.runner()
	if err != nil {
		return nil, nil, err
	}
	return runner, gen, nil
}

// Run replays the run's whole trace through a runner.
func (r Recipe) Run() (*Runner, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	gen, err := r.Trace()
	if err != nil {
		return nil, err
	}
	return r.Replay(gen)
}

// Replay runs src through the recipe's runner: the recipe's own trace
// for Run, or a recorded one (a file written by ncgen), whose length the
// recipe's timing then only sizes the metric storage for.
func (r Recipe) Replay(src trace.Source) (*Runner, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	runner, err := r.runner()
	if err != nil {
		return nil, err
	}
	if err := runner.Run(src); err != nil {
		return nil, err
	}
	return runner, nil
}

// runner builds the run's Runner with its metric storage sized for the
// trace, so steady-state recording allocates nothing.
func (r Recipe) runner() (*Runner, error) {
	vcfg := r.Vivaldi
	if vcfg == (vivaldi.Config{}) {
		vcfg = vivaldi.DefaultConfig()
	}
	vcfg.Seed = r.Seed + 2
	return NewRunner(Config{
		Nodes:                  r.Nodes,
		Vivaldi:                vcfg,
		Filter:                 r.Filter,
		Policy:                 r.Policy,
		ExpectedTicks:          r.DurationTicks,
		ExpectedSamplesPerNode: int(r.DurationTicks/r.IntervalTicks) + 1,
	})
}
