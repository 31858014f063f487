package experiments

import (
	"fmt"
	"strings"

	"netcoord/internal/stats"
)

// Fig02Result reproduces Figure 2: the frequency histogram of raw
// latency measurements across the whole population, on the paper's
// bucket layout. The headline calibration is that ~0.4% of measurements
// exceed one second.
type Fig02Result struct {
	Hist *stats.Histogram
	// FractionAboveOneSecond is the paper's 0.4% headline number.
	FractionAboveOneSecond float64
	// Total is the number of measurements observed.
	Total uint64
}

// Fig02RawLatencyHistogram runs the trace generator and histograms every
// raw observation.
func Fig02RawLatencyHistogram(scale Scale) (*Fig02Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	gen, err := scale.recipe(nil, nil).Trace()
	if err != nil {
		return nil, err
	}
	hist, err := stats.NewHistogram(stats.Fig2Bounds())
	if err != nil {
		return nil, err
	}
	for {
		s, ok := gen.Next()
		if !ok {
			break
		}
		if s.Lost {
			continue
		}
		hist.Observe(s.RTT)
	}
	return &Fig02Result{
		Hist:                   hist,
		FractionAboveOneSecond: hist.FractionAtOrAbove(1000),
		Total:                  hist.Total(),
	}, nil
}

// Render implements the experiment output contract.
func (r *Fig02Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 2: frequency histogram of raw latency measurements"))
	sb.WriteString(r.Hist.Render())
	sb.WriteString(fmt.Sprintf("total samples: %d\n", r.Total))
	sb.WriteString(fmt.Sprintf("fraction >= 1s: %.4f%% (paper: ~0.4%%)\n", r.FractionAboveOneSecond*100))
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig02Result) Headlines() []Headline {
	return []Headline{
		{Name: "%ge1s", Paper: "~0.4%", Value: r.FractionAboveOneSecond * 100},
		{Name: "samples", Value: float64(r.Total)},
	}
}

// Fig03Result reproduces Figure 3: one representative link's histogram
// (200 ms buckets) and its latency-over-time scatter, demonstrating that
// per-link heavy tails persist across the whole trace.
type Fig03Result struct {
	From, To int
	Hist     *stats.Histogram
	// Scatter holds (tick-hours, RTT ms) points, downsampled.
	Scatter []stats.Point
	Median  float64
	Max     float64
	// SpikeSpread is the fraction of >=10x-median samples that fall in
	// the second half of the trace (≈0.5 means spikes are spread evenly
	// over time, the paper's observation).
	SpikeSpread float64
}

// Fig03SingleLinkDistribution examines one representative
// inter-continental link.
func Fig03SingleLinkDistribution(scale Scale) (*Fig03Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	net, err := scale.recipe(nil, nil).Network()
	if err != nil {
		return nil, err
	}
	// Node 0 (us-west) to node 3 (china): a long-haul link like the
	// paper's example.
	const from, to = 0, 3
	hist, err := stats.NewHistogram(stats.Fig3Bounds())
	if err != nil {
		return nil, err
	}
	var values []float64
	var scatter []stats.Point
	sampleEvery := scale.DurationTicks / 2000
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	for tick := uint64(0); tick < scale.DurationTicks; tick++ {
		rtt, ok := net.Sample(from, to, tick)
		if !ok {
			continue
		}
		hist.Observe(rtt)
		values = append(values, rtt)
		if tick%sampleEvery == 0 {
			scatter = append(scatter, stats.Point{X: float64(tick) / 3600, Y: rtt})
		}
	}
	med, err := stats.Median(values)
	if err != nil {
		return nil, err
	}
	maxV, err := stats.Percentile(values, 100)
	if err != nil {
		return nil, err
	}
	spikesLate, spikes := 0, 0
	for i, v := range values {
		if v >= 10*med {
			spikes++
			if uint64(i) >= uint64(len(values))/2 {
				spikesLate++
			}
		}
	}
	spread := 0.0
	if spikes > 0 {
		spread = float64(spikesLate) / float64(spikes)
	}
	return &Fig03Result{
		From: from, To: to,
		Hist:        hist,
		Scatter:     scatter,
		Median:      med,
		Max:         maxV,
		SpikeSpread: spread,
	}, nil
}

// Render implements the experiment output contract.
func (r *Fig03Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header(fmt.Sprintf("Figure 3: raw latency distribution of link %d->%d", r.From, r.To)))
	sb.WriteString(r.Hist.Render())
	sb.WriteString(fmt.Sprintf("median: %.1f ms   max: %.1f ms   max/median: %.0fx\n", r.Median, r.Max, r.Max/r.Median))
	sb.WriteString(fmt.Sprintf("fraction of >=10x-median spikes in second half: %.2f (0.5 = spread evenly over time)\n", r.SpikeSpread))
	sb.WriteString(fmt.Sprintf("scatter points captured: %d\n", len(r.Scatter)))
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig03Result) Headlines() []Headline {
	return []Headline{{Name: "max/median", Value: r.Max / r.Median}}
}
