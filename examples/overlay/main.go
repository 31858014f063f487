// Overlay operator placement: the paper's motivating application.
//
// The authors built network coordinates for stream-based overlay
// networks, where a coordinate change can "initiate a cascade of events,
// culminating in one or more heavyweight process migrations". This
// example builds a 48-node coordinate space over the synthetic WAN, then
// uses it for two placement tasks:
//
//  1. k-nearest-neighbor selection: for a client node, find the k
//     overlay nodes with the smallest estimated RTT — compared against
//     the ground-truth ranking to compute precision.
//  2. operator placement: choose the node minimizing the estimated
//     max-latency to a producer/consumer pair (a stream join operator),
//     and show how rarely that decision changes when driven by
//     application-level coordinates versus system-level ones.
//
// Run: go run ./examples/overlay
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"netcoord/internal/coord"
	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/netsim"
	"netcoord/internal/sim"
)

const (
	nodes   = 48
	seconds = 1800
	k       = 5
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "overlay: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	mp, err := filter.MPFactory(filter.DefaultMPConfig())
	if err != nil {
		return err
	}
	runner, gen, err := sim.Recipe{
		Nodes:         nodes,
		Seed:          7,
		IntervalTicks: 1,
		DurationTicks: seconds,
		Filter:        mp,
		Policy: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
		},
	}.Start()
	if err != nil {
		return err
	}
	net := gen.Network()
	// Track placement churn while the space converges: re-decide the
	// operator placement every minute using both coordinate streams.
	producer, consumer := 0, 3 // us-west and china
	var sysChurn, appChurn int
	lastSys, lastApp := -1, -1
	decide := func(coords []coord.Coordinate) (int, error) {
		best, bestCost := -1, 0.0
		for i, c := range coords {
			if i == producer || i == consumer {
				continue
			}
			dp, err := c.DistanceTo(coords[producer])
			if err != nil {
				return 0, err
			}
			dc, err := c.DistanceTo(coords[consumer])
			if err != nil {
				return 0, err
			}
			cost := dp
			if dc > dp {
				cost = dc
			}
			if best == -1 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		return best, nil
	}
	nextDecision := uint64(60)
	for {
		s, ok := gen.Next()
		if !ok {
			break
		}
		if s.Tick >= nextDecision {
			sysCoords, appCoords, err := snapshot(runner)
			if err != nil {
				return err
			}
			sysPick, err := decide(sysCoords)
			if err != nil {
				return err
			}
			appPick, err := decide(appCoords)
			if err != nil {
				return err
			}
			if lastSys != -1 && sysPick != lastSys {
				sysChurn++
			}
			if lastApp != -1 && appPick != lastApp {
				appChurn++
			}
			lastSys, lastApp = sysPick, appPick
			nextDecision += 60
		}
		if err := runner.Step(s); err != nil {
			return err
		}
	}

	// Final k-NN precision for a client in europe (node 2), judged
	// against ground-truth base RTTs.
	sysCoords, appCoords, err := snapshot(runner)
	if err != nil {
		return err
	}
	const client = 2
	precision, err := knnPrecision(net, appCoords, client, k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "coordinate space: %d nodes over 4 regions, %d s of observations\n\n", nodes, seconds)
	fmt.Fprintf(w, "k-NN (k=%d) precision for node %d (%s), app-level coordinates: %.0f%%\n",
		k, client, net.Region(client), precision*100)

	sysPrecision, err := knnPrecision(net, sysCoords, client, k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "k-NN (k=%d) precision with system-level coordinates:          %.0f%%\n\n", k, sysPrecision*100)

	fmt.Fprintf(w, "operator placement churn over %d decisions (producer %s, consumer %s):\n",
		(seconds/60)-1, net.Region(producer), net.Region(consumer))
	fmt.Fprintf(w, "  driven by system-level coordinates:      %d migrations\n", sysChurn)
	fmt.Fprintf(w, "  driven by application-level coordinates: %d migrations\n", appChurn)
	fmt.Fprintln(w, "\nevery migration is 'heavyweight'; the app-level stream avoids almost all of them.")
	return nil
}

// snapshot reads both coordinate streams for every node.
func snapshot(runner *sim.Runner) (sys, app []coord.Coordinate, err error) {
	sys = make([]coord.Coordinate, nodes)
	app = make([]coord.Coordinate, nodes)
	for i := 0; i < nodes; i++ {
		if sys[i], err = runner.Coordinate(i); err != nil {
			return nil, nil, err
		}
		if app[i], err = runner.AppCoordinate(i); err != nil {
			return nil, nil, err
		}
	}
	return sys, app, nil
}

// knnPrecision compares the coordinate-ranked k nearest overlay nodes
// with the ground-truth base-RTT ranking.
func knnPrecision(net *netsim.Network, coords []coord.Coordinate, client, k int) (float64, error) {
	type ranked struct {
		node int
		cost float64
	}
	truth := make([]ranked, 0, nodes-1)
	est := make([]ranked, 0, nodes-1)
	for i := 0; i < nodes; i++ {
		if i == client {
			continue
		}
		truth = append(truth, ranked{node: i, cost: net.BaseRTT(client, i, seconds)})
		d, err := coords[client].DistanceTo(coords[i])
		if err != nil {
			return 0, err
		}
		est = append(est, ranked{node: i, cost: d})
	}
	sort.Slice(truth, func(a, b int) bool { return truth[a].cost < truth[b].cost })
	sort.Slice(est, func(a, b int) bool { return est[a].cost < est[b].cost })
	trueSet := map[int]bool{}
	for _, r := range truth[:k] {
		trueSet[r.node] = true
	}
	hits := 0
	for _, r := range est[:k] {
		if trueSet[r.node] {
			hits++
		}
	}
	return float64(hits) / float64(k), nil
}
