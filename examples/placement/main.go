// Placement: latency-aware service selection with the public API only.
//
// A fleet of clients measures a synthetic three-region topology through
// the netcoord public API (no internal packages), then answers the two
// placement questions the paper's overlay work motivates:
//
//   - "which replicas are closest to me?" via netcoord.Nearest, and
//   - "where should a stream operator between two endpoints run?" via
//     netcoord.MinimaxPlacement.
//
// Run: go run ./examples/placement
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"netcoord"

	"netcoord/internal/xrand"
)

// site is one host in the demo topology.
type site struct {
	name   string
	region string
	x, y   float64 // ms-plane position: distances give base RTTs
	client *netcoord.Client
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "placement: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	sites := []*site{
		{name: "sfo-1", region: "us-west", x: 0, y: 0},
		{name: "sfo-2", region: "us-west", x: 4, y: 3},
		{name: "nyc-1", region: "us-east", x: 70, y: 8},
		{name: "nyc-2", region: "us-east", x: 73, y: 4},
		{name: "ams-1", region: "europe", x: 155, y: 25},
		{name: "ams-2", region: "europe", x: 158, y: 28},
	}
	for i, s := range sites {
		cfg := netcoord.DefaultConfig()
		cfg.Seed = uint64(i + 1)
		c, err := netcoord.NewClient(cfg)
		if err != nil {
			return err
		}
		s.client = c
	}

	// Every site periodically measures every other: base RTT plus jitter
	// plus occasional half-second stalls.
	rng := xrand.NewStream(99)
	baseRTT := func(a, b *site) float64 {
		dx, dy := a.x-b.x, a.y-b.y
		return math.Max(math.Sqrt(dx*dx+dy*dy), 0.5)
	}
	measure := func(a, b *site) float64 {
		rtt := baseRTT(a, b) * (1 + math.Abs(rng.Normal(0, 0.05)))
		if rng.Bernoulli(0.03) {
			rtt += rng.Uniform(400, 3000)
		}
		return rtt
	}
	for round := 0; round < 400; round++ {
		for _, a := range sites {
			for _, b := range sites {
				if a == b {
					continue
				}
				if _, err := a.client.Observe(b.name, measure(a, b), b.client.Coordinate(), b.client.Error()); err != nil {
					return err
				}
			}
		}
	}

	// Question 1: nearest replicas for sfo-1, from stable app-level
	// coordinates.
	var candidates []netcoord.Candidate
	for _, s := range sites[1:] {
		candidates = append(candidates, netcoord.Candidate{ID: s.name, Coord: s.client.AppCoordinate()})
	}
	nearest, err := netcoord.Nearest(sites[0].client.AppCoordinate(), candidates, 3)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "three nearest replicas to sfo-1 (app-level coordinates):")
	for _, r := range nearest {
		fmt.Fprintf(w, "  %-8s estimated %6.1f ms\n", r.ID, r.EstimatedRTT)
	}

	// Question 2: place a stream operator between sfo-2 and ams-1.
	producer := sites[1].client.AppCoordinate()
	consumer := sites[4].client.AppCoordinate()
	best, err := netcoord.MinimaxPlacement(
		[]netcoord.Coordinate{producer, consumer}, candidates)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\noperator between sfo-2 and ams-1 placed at %s (worst-case leg %.1f ms)\n",
		best.ID, best.EstimatedRTT)
	fmt.Fprintln(w, "expected: a us-east site — the geographic midpoint wins the minimax.")
	return nil
}
