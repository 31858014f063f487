package experiments

import (
	"fmt"
	"strings"

	"netcoord/internal/coord"
	"netcoord/internal/netsim"
	"netcoord/internal/sim"
	"netcoord/internal/stats"
	"netcoord/internal/vivaldi"
)

// Fig06Result reproduces Figure 6: confidence over time on a three-node
// low-latency cluster, with and without confidence building. The paper's
// finding: with the 3 ms error margin, confidence reaches ~100% after
// start-up; without it, confidence wavers around 75%.
type Fig06Result struct {
	// WithBuilding and WithoutBuilding are per-tick confidence series
	// for node 0.
	WithBuilding    []stats.Point
	WithoutBuilding []stats.Point
	// SteadyWith and SteadyWithout are mean confidences over the second
	// half.
	SteadyWith    float64
	SteadyWithout float64
}

// Fig06ConfidenceBuilding runs the paper's ten-minute three-node cluster
// experiment at 1 Hz.
func Fig06ConfidenceBuilding(scale Scale) (*Fig06Result, error) {
	// The cluster experiment has its own fixed shape (3 nodes, 10
	// minutes); the scale only contributes the seed.
	const nodes = 3
	const duration = 600
	runOne := func(margin float64) ([]stats.Point, float64, error) {
		recipe := sim.Recipe{
			Nodes:         nodes,
			Seed:          scale.Seed,
			IntervalTicks: 1,
			DurationTicks: duration,
			Base:          netsim.LowLatencyCluster,
			Vivaldi:       vivaldi.DefaultConfig(),
		}
		recipe.Vivaldi.ErrorMargin = margin
		runner, gen, err := recipe.Start()
		if err != nil {
			return nil, 0, err
		}
		var series []stats.Point
		lastTick := uint64(0)
		for {
			s, ok := gen.Next()
			if !ok {
				break
			}
			if s.Tick != lastTick {
				conf, err := runner.Confidence(0)
				if err != nil {
					return nil, 0, err
				}
				series = append(series, stats.Point{X: float64(lastTick) / 60, Y: conf})
				lastTick = s.Tick
			}
			if err := runner.Step(s); err != nil {
				return nil, 0, err
			}
		}
		var steady []float64
		for _, p := range series {
			if p.X >= float64(duration)/60/2 {
				steady = append(steady, p.Y)
			}
		}
		mean, err := stats.Mean(steady)
		if err != nil {
			return nil, 0, err
		}
		return series, mean, nil
	}
	with, steadyWith, err := runOne(3)
	if err != nil {
		return nil, fmt.Errorf("fig 6 with building: %w", err)
	}
	without, steadyWithout, err := runOne(0)
	if err != nil {
		return nil, fmt.Errorf("fig 6 without building: %w", err)
	}
	return &Fig06Result{
		WithBuilding:    with,
		WithoutBuilding: without,
		SteadyWith:      steadyWith,
		SteadyWithout:   steadyWithout,
	}, nil
}

// Render implements the experiment output contract.
func (r *Fig06Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 6: confidence building on a 3-node low-latency cluster (10 min, 1 Hz)"))
	sb.WriteString(fmt.Sprintf("steady-state confidence with 3 ms margin:    %.3f (paper: ~1.00)\n", r.SteadyWith))
	sb.WriteString(fmt.Sprintf("steady-state confidence without margin:       %.3f (paper: ~0.75)\n", r.SteadyWithout))
	sb.WriteString("confidence over time (minute: with / without):\n")
	for i := 0; i < len(r.WithBuilding) && i < len(r.WithoutBuilding); i += 60 {
		sb.WriteString(fmt.Sprintf("  t=%4.1fm  %.3f / %.3f\n",
			r.WithBuilding[i].X, r.WithBuilding[i].Y, r.WithoutBuilding[i].Y))
	}
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig06Result) Headlines() []Headline {
	return []Headline{
		{Name: "conf-with", Paper: "~1.00", Value: r.SteadyWith},
		{Name: "conf-without", Paper: "~0.75", Value: r.SteadyWithout},
	}
}

// Fig07Trajectory is one node's coordinate positions over time.
type Fig07Trajectory struct {
	Node      int
	Region    string
	Positions []coord.Coordinate
	// TotalDrift is the displacement between first and last position.
	TotalDrift float64
	// PathLength is the summed inter-snapshot displacement.
	PathLength float64
}

// Fig07Result reproduces Figure 7: four nodes' coordinates (one per
// region) over a three-hour run on a drifting network. The paper's
// point: coordinates move consistently over time — they neither rotate
// about the origin nor oscillate — so the application-level coordinate
// must eventually follow.
type Fig07Result struct {
	Trajectories []Fig07Trajectory
	// DriftRatio is mean(TotalDrift / PathLength): near 1 means motion
	// is directed rather than oscillatory.
	DriftRatio float64
}

// Fig07CoordinateDrift runs a drifting network and snapshots one node
// per region every five minutes.
func Fig07CoordinateDrift(scale Scale) (*Fig07Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	duration := scale.DurationTicks
	if duration < 3*3600 && scale.Nodes >= 200 {
		duration = 3 * 3600
	}
	recipe := scale.recipe(mpFactory, nil)
	recipe.DurationTicks = duration
	recipe.EditNetwork = func(c *netsim.Config) {
		// Slow continental drift: a few ms/hour, enough to displace
		// coordinates measurably over the run.
		c.DriftPerHour = []netsim.Drift{
			{DX: -4, DY: 2},
			{DX: 3, DY: -1},
			{DX: 5, DY: 3},
			{DX: -6, DY: -2},
		}
	}
	runner, gen, err := recipe.Start()
	if err != nil {
		return nil, err
	}
	net := gen.Network()
	// One tracked node per region: nodes 0..3 under round-robin
	// assignment.
	tracked := []int{0, 1, 2, 3}
	trajs := make([]Fig07Trajectory, len(tracked))
	for i, n := range tracked {
		trajs[i] = Fig07Trajectory{Node: n, Region: net.Region(n)}
	}
	snapEvery := duration / 36 // ~5-minute snapshots on a 3 h run
	if snapEvery == 0 {
		snapEvery = 1
	}
	nextSnap := snapEvery
	for {
		s, ok := gen.Next()
		if !ok {
			break
		}
		if s.Tick >= nextSnap {
			for i, n := range tracked {
				c, err := runner.Coordinate(n)
				if err != nil {
					return nil, err
				}
				trajs[i].Positions = append(trajs[i].Positions, c)
			}
			nextSnap += snapEvery
		}
		if err := runner.Step(s); err != nil {
			return nil, err
		}
	}
	var ratios []float64
	for i := range trajs {
		tr := &trajs[i]
		// Skip the convergence phase: measure from the second quarter on.
		q := len(tr.Positions) / 4
		if len(tr.Positions)-q < 2 {
			continue
		}
		post := tr.Positions[q:]
		var path float64
		for j := 1; j < len(post); j++ {
			d, err := post[j].DisplacementFrom(post[j-1])
			if err != nil {
				return nil, err
			}
			path += d
		}
		drift, err := post[len(post)-1].DisplacementFrom(post[0])
		if err != nil {
			return nil, err
		}
		tr.PathLength = path
		tr.TotalDrift = drift
		if path > 0 {
			ratios = append(ratios, drift/path)
		}
	}
	ratio, err := stats.Mean(ratios)
	if err != nil {
		return nil, err
	}
	return &Fig07Result{Trajectories: trajs, DriftRatio: ratio}, nil
}

// Render implements the experiment output contract.
func (r *Fig07Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 7: coordinates drift consistently over hours (one node per region)"))
	for _, tr := range r.Trajectories {
		sb.WriteString(fmt.Sprintf("node %d (%s): drift %.1f ms over %d snapshots (path %.1f ms)\n",
			tr.Node, tr.Region, tr.TotalDrift, len(tr.Positions), tr.PathLength))
		if len(tr.Positions) > 0 {
			first, last := tr.Positions[0], tr.Positions[len(tr.Positions)-1]
			sb.WriteString(fmt.Sprintf("  start %v -> end %v\n", first, last))
		}
	}
	sb.WriteString(fmt.Sprintf("directedness (drift/path, post-convergence): %.2f — sustained direction, not oscillation\n", r.DriftRatio))
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig07Result) Headlines() []Headline {
	return []Headline{{Name: "drift/path", Value: r.DriftRatio}}
}
