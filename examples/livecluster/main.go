// Live cluster: real UDP nodes forming a coordinate space on localhost.
//
// Starts N full nodes — actual sockets, the ping/pong wire protocol,
// gossip neighbor discovery — seeded with only the first node's address,
// then watches the system converge. This is the deployable stack the
// paper ran on 270 PlanetLab machines, shrunk onto one host.
//
// Loopback latencies sit below measurement precision, the regime of the
// paper's Section IV-B cluster experiment, so the nodes run with
// confidence building (a 3 ms error margin) enabled.
//
// Run: go run ./examples/livecluster
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"netcoord"
)

const clusterSize = 5

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "livecluster: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	cfg := netcoord.DefaultConfig()
	cfg.ErrorMargin = 3 // confidence building: Section IV-B

	var nodes []*netcoord.Node
	defer func() {
		for _, n := range nodes {
			if err := n.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "stop: %v\n", err)
			}
		}
	}()

	var seeds []string
	for i := 0; i < clusterSize; i++ {
		nodeCfg := cfg
		nodeCfg.Seed = uint64(i + 1)
		n, err := netcoord.StartNode(netcoord.NodeConfig{
			ListenAddr:     "127.0.0.1:0",
			Seeds:          seeds,
			Client:         nodeCfg,
			SampleInterval: 50 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		if i == 0 {
			seeds = []string{n.Addr()} // everyone else joins via node 0
		}
		fmt.Fprintf(w, "started node %d on %s\n", i, n.Addr())
	}

	// Push convergence along synchronously, then report.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 60; round++ {
		for i, n := range nodes {
			if i == 0 {
				continue // node 0 has no seeds until gossip reaches it
			}
			if err := n.SampleNow(ctx); err != nil {
				// Transient timeouts are expected under load; the
				// background sampler keeps going regardless.
				continue
			}
		}
	}
	time.Sleep(500 * time.Millisecond) // let background samplers breathe

	fmt.Fprintf(w, "\n%-6s %-28s %-12s %-10s %-8s\n", "node", "coordinate", "confidence", "neighbors", "samples")
	for i, n := range nodes {
		fmt.Fprintf(w, "%-6d %-28v %-12.2f %-10d %-8d\n",
			i, n.Coordinate(), n.Confidence(), len(n.Neighbors()), n.Samples())
	}

	// Pairwise latency estimates: on loopback every pair should predict
	// a few milliseconds at most.
	fmt.Fprintln(w, "\npairwise RTT estimates (ms):")
	for i := range nodes {
		for j := range nodes {
			if i >= j {
				continue
			}
			est, err := nodes[i].EstimateRTT(nodes[j].Coordinate())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  node %d <-> node %d: %6.2f\n", i, j, est)
		}
	}
	fmt.Fprintln(w, "\ngossip spread the membership from one seed; confidence building handled sub-precision RTTs.")
	return nil
}
