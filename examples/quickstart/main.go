// Quickstart: embed RTT measurements into a coordinate space with the
// public netcoord API.
//
// Two clients measure a jittery, spike-prone 80 ms link — the kind of
// observation stream a real WAN produces — and still converge to
// coordinates whose distance predicts the true latency, because the MP
// filter strips the spikes before Vivaldi sees them. The application
// coordinate barely moves while the system coordinate keeps refining.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"netcoord"

	"netcoord/internal/xrand"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	cfgA := netcoord.DefaultConfig()
	cfgA.Seed = 1
	alice, err := netcoord.NewClient(cfgA)
	if err != nil {
		return err
	}
	cfgB := netcoord.DefaultConfig()
	cfgB.Seed = 2
	bob, err := netcoord.NewClient(cfgB)
	if err != nil {
		return err
	}

	// A synthetic 80 ms link: 5% of pings are congestion artifacts up to
	// 50x the base latency — exactly the input that breaks raw Vivaldi.
	rng := xrand.NewStream(42)
	const trueRTT = 80.0
	measure := func() float64 {
		if rng.Bernoulli(0.05) {
			return rng.Uniform(400, 4000)
		}
		return trueRTT * (1 + math.Abs(rng.Normal(0, 0.04)))
	}

	appUpdates := 0
	for i := 0; i < 600; i++ {
		rtt := measure()
		// Each side feeds the observation along with the remote's
		// coordinate state (your protocol carries these two values).
		stA, err := alice.Observe("bob", rtt, bob.Coordinate(), bob.Error())
		if err != nil {
			return err
		}
		if stA.AppChanged {
			appUpdates++
		}
		if _, err := bob.Observe("alice", rtt, alice.Coordinate(), alice.Error()); err != nil {
			return err
		}
		if (i+1)%150 == 0 {
			est, err := alice.DistanceTo(bob.Coordinate())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "after %3d observations: estimated RTT %6.1f ms (true %.0f), confidence %.2f\n",
				i+1, est, trueRTT, alice.Confidence())
		}
	}

	est, err := alice.DistanceTo(bob.Coordinate())
	if err != nil {
		return err
	}
	appEst, err := alice.AppDistanceTo(bob.AppCoordinate())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfinal system-level estimate:      %.1f ms\n", est)
	fmt.Fprintf(w, "final application-level estimate: %.1f ms\n", appEst)
	fmt.Fprintf(w, "application coordinate updates:   %d (of 600 observations)\n", appUpdates)
	fmt.Fprintln(w, "\nthe app coordinate moved rarely; the estimate stayed accurate — that is the paper's point.")
	return nil
}
