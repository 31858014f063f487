// Proximity service: a live cluster feeding a coordinate Registry that
// answers "nearest k replicas" queries.
//
// Boots real UDP nodes on localhost, wires each node's application-level
// update channel into a shared Registry via Feed, converges the system,
// and then answers the query every coordinate deployment exists for:
// which replicas should this client talk to?
//
// This is the consumer side of the paper's stability argument: because
// application-level coordinates move only on significant change, the
// registry's answers — and therefore replica selections — stay put
// instead of flapping with every Vivaldi refinement.
//
// Run: go run ./examples/proximity
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"netcoord"
)

const clusterSize = 6

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "proximity: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	cfg := netcoord.DefaultConfig()
	cfg.ErrorMargin = 3 // loopback RTTs sit below measurement precision

	// The registry tracks the cluster; a TTL would age out crashed
	// nodes in a long-running deployment.
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		return err
	}
	defer reg.Close()

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
		id := fmt.Sprintf("replica-%d", i)
		// Each node's application-level updates stream straight into
		// the registry: live nodes keep it current automatically.
		updates := make(chan netcoord.NodeUpdate, 16)
		n, err := netcoord.StartNode(netcoord.NodeConfig{
			ListenAddr:     "127.0.0.1:0",
			Seeds:          seeds,
			Client:         nodeCfg,
			SampleInterval: 50 * time.Millisecond,
			Updates:        updates,
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		reg.Feed(id, updates)
		if i == 0 {
			seeds = []string{n.Addr()}
		}
		fmt.Fprintf(w, "started %s on %s\n", id, n.Addr())
	}

	// Drive convergence synchronously so the example finishes quickly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 80; round++ {
		for i, n := range nodes {
			if i == 0 {
				continue // node 0 learns peers through gossip
			}
			if err := n.SampleNow(ctx); err != nil {
				continue // transient timeouts are fine
			}
		}
	}
	// Give the feeds a moment to drain the update channels.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Len() < clusterSize && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	st := reg.Stats()
	fmt.Fprintf(w, "\nregistry: %d entries, %d upserts from node feeds\n", st.Entries, st.Upserts)

	// The payoff query: nearest 3 replicas to a client. The client is
	// not part of the cluster — it only knows its own coordinate (here,
	// node 0's, as if the client measured itself against the system).
	client := nodes[0].AppCoordinate()
	nearest, err := reg.Nearest(client, 3)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "nearest 3 replicas to the client:")
	for rank, r := range nearest {
		fmt.Fprintf(w, "  %d. %-10s estimated RTT %6.2f ms\n", rank+1, r.ID, r.EstimatedRTT)
	}

	// And the same through a registered node's perspective — guarded on
	// that node's update actually having landed, since a loaded machine
	// can pass the drain deadline with stragglers missing.
	if _, ok := reg.Get("replica-1"); ok {
		peers, err := reg.NearestTo("replica-1", 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "nearest 3 peers to replica-1 (itself excluded):")
		for rank, r := range peers {
			fmt.Fprintf(w, "  %d. %-10s estimated RTT %6.2f ms\n", rank+1, r.ID, r.EstimatedRTT)
		}
	}
	return nil
}
