// Command ncnode runs a live network-coordinate node: the deployable
// stack the paper ran on PlanetLab. It binds a UDP socket, joins via
// seed addresses, samples neighbors on an interval, and periodically
// prints its system- and application-level coordinates.
//
// Start a first node:
//
//	ncnode -listen 127.0.0.1:9000
//
// Join more:
//
//	ncnode -listen 127.0.0.1:9001 -join 127.0.0.1:9000
//	ncnode -listen 127.0.0.1:9002 -join 127.0.0.1:9000 -interval 1s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netcoord"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ncnode: %v\n", err)
		os.Exit(1)
	}
}

// run runs one node as args say and prints its status to w.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("ncnode", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "UDP listen address")
		join     = fs.String("join", "", "comma-separated seed addresses")
		interval = fs.Duration("interval", 5*time.Second, "sampling interval (paper: 5s)")
		report   = fs.Duration("report", 10*time.Second, "status print interval")
		duration = fs.Duration("duration", 0, "exit after this long (0 = run until signal)")
		noFilter = fs.Bool("no-filter", false, "disable the MP filter (raw Vivaldi baseline)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var seeds []string
	if *join != "" {
		for _, s := range strings.Split(*join, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
	}
	clientCfg := netcoord.DefaultConfig()
	clientCfg.DisableFilter = *noFilter

	updates := make(chan netcoord.NodeUpdate, 16)
	n, err := netcoord.StartNode(netcoord.NodeConfig{
		ListenAddr:     *listen,
		Seeds:          seeds,
		Client:         clientCfg,
		SampleInterval: *interval,
		Updates:        updates,
	})
	if err != nil {
		return err
	}
	defer func() {
		if serr := n.Stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	fmt.Fprintf(w, "ncnode listening on %s (filter: %v, policy: energy w=32 tau=8)\n", n.Addr(), !*noFilter)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	reportTicker := time.NewTicker(*report)
	defer reportTicker.Stop()
	var deadline <-chan time.Time
	if *duration > 0 {
		t := time.NewTimer(*duration)
		defer t.Stop()
		deadline = t.C
	}

	for {
		select {
		case <-sigCh:
			fmt.Fprintln(w, "\nshutting down")
			return nil
		case <-deadline:
			return nil
		case u := <-updates:
			fmt.Fprintf(w, "%s application coordinate updated: %v\n", u.At.Format(time.TimeOnly), u.Coord)
		case <-reportTicker.C:
			fmt.Fprintf(w, "%s sys=%v app=%v confidence=%.2f neighbors=%d samples=%d\n",
				time.Now().Format(time.TimeOnly),
				n.Coordinate(), n.AppCoordinate(), n.Confidence(), len(n.Neighbors()), n.Samples())
		}
	}
}
