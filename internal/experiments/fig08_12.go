package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"netcoord/internal/heuristic"
	"netcoord/internal/sim"
)

// SweepPoint is one (parameter, metrics) point of a heuristic sweep.
type SweepPoint struct {
	Param              float64
	MedianRelErr       float64
	MedianInstability  float64
	MeanUpdateFraction float64
}

// sweep runs one policy configuration per parameter value and reads the
// application-level metrics over the measurement half. Points are
// independent simulations — the paper's Fig 8-12 replay one trace per
// configuration — so whole runs are the parallel grain: as many at once
// as there are cores, each on its own goroutine.
func sweep(scale Scale, params []float64, build func(p float64) sim.PolicyFactory) ([]SweepPoint, error) {
	return sweepWith(min(len(params), runtime.GOMAXPROCS(0)), scale, params, build)
}

// sweepWith is sweep on the given number of workers. Results are slotted
// by parameter index, so the output does not depend on the worker count
// or on completion order.
func sweepWith(workers int, scale Scale, params []float64, build func(p float64) sim.PolicyFactory) ([]SweepPoint, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks
	one := func(p float64) (SweepPoint, error) {
		r, err := scale.recipe(mpFactory, build(p)).Run()
		if err != nil {
			return SweepPoint{}, fmt.Errorf("sweep param %v: %w", p, err)
		}
		s, err := r.App().Summarize(from, to)
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{
			Param:              p,
			MedianRelErr:       s.MedianRelErr,
			MedianInstability:  s.MedianInstability,
			MeanUpdateFraction: s.MeanUpdateFraction,
		}, nil
	}

	out := make([]SweepPoint, len(params))
	errs := make([]error, len(params))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, p := range params {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			out[i], errs[i] = one(p)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func renderSweep(name, param string, pts []SweepPoint) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("--- %s ---\n", name))
	sb.WriteString(fmt.Sprintf("%-10s %-14s %-14s %-14s\n", param, "med rel err", "instability", "updates/s (%)"))
	for _, p := range pts {
		sb.WriteString(fmt.Sprintf("%-10.4g %-14.4f %-14.3f %-14.2f\n",
			p.Param, p.MedianRelErr, p.MedianInstability, p.MeanUpdateFraction*100))
	}
	return sb.String()
}

// energyTaus is the paper's Figure 8/10 x-axis for ENERGY.
func energyTaus() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// relativeEpsilons is the paper's Figure 8/10 x-axis for RELATIVE.
func relativeEpsilons() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// Fig08Result reproduces Figure 8: instability and median relative error
// as the update threshold varies, window fixed at 32. The paper's
// finding: both window heuristics gain stability with threshold at
// little accuracy cost; accuracy starts to decline after tau = 8
// (ENERGY) and epsilon = 0.3 (RELATIVE).
type Fig08Result struct {
	Energy   []SweepPoint
	Relative []SweepPoint
}

// Fig08ThresholdSweep runs both window-based heuristics across their
// threshold ranges.
func Fig08ThresholdSweep(scale Scale) (*Fig08Result, error) {
	energy, err := sweep(scale, energyTaus(), func(tau float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, tau)
		}
	})
	if err != nil {
		return nil, err
	}
	relative, err := sweep(scale, relativeEpsilons(), func(eps float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewRelative(dim, heuristic.DefaultWindow, eps)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Fig08Result{Energy: energy, Relative: relative}, nil
}

// Render implements the experiment output contract.
func (r *Fig08Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 8: threshold sweep for ENERGY and RELATIVE (window 32)"))
	sb.WriteString(renderSweep("ENERGY (tau)", "tau", r.Energy))
	sb.WriteString(renderSweep("RELATIVE (epsilon)", "eps", r.Relative))
	sb.WriteString("paper: stability grows with threshold; accuracy declines after tau=8 / eps=0.3\n")
	return sb.String()
}

// Headlines implements the experiment output contract: ENERGY at
// tau = 8, the paper's recommended operating point.
func (r *Fig08Result) Headlines() []Headline {
	p := sweepPoint(r.Energy, 8)
	return []Headline{
		{Name: "energy-t8-err", Value: p.MedianRelErr},
		{Name: "energy-t8-inst", Value: p.MedianInstability},
	}
}

// sweepPoint returns the point of pts at param. A missing point reads
// NaN in every metric, so its headlines show as missing instead of
// vanishing.
func sweepPoint(pts []SweepPoint, param float64) SweepPoint {
	for _, p := range pts {
		if p.Param == param {
			return p
		}
	}
	nan := math.NaN()
	return SweepPoint{Param: param, MedianRelErr: nan, MedianInstability: nan, MeanUpdateFraction: nan}
}

// Fig09Result reproduces Figure 9: window-size sweep at fixed thresholds
// (tau=8, eps=0.3). The paper's finding: windows 2^5..2^9 improve all
// three metrics; very large windows update too rarely.
type Fig09Result struct {
	Energy   []SweepPoint
	Relative []SweepPoint
}

// Fig09WindowSizeSweep varies the window size exponentially.
func Fig09WindowSizeSweep(scale Scale) (*Fig09Result, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	windows := []float64{4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// Cap window sizes at what the run can actually fill a few times
	// over, otherwise the sweep measures nothing but warm-up.
	maxW := float64(scale.DurationTicks / scale.IntervalTicks / 4)
	var usable []float64
	for _, w := range windows {
		if w <= maxW {
			usable = append(usable, w)
		}
	}
	energy, err := sweep(scale, usable, func(w float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, int(w), heuristic.DefaultEnergyTau)
		}
	})
	if err != nil {
		return nil, err
	}
	relative, err := sweep(scale, usable, func(w float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewRelative(dim, int(w), heuristic.DefaultRelativeEpsilon)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Fig09Result{Energy: energy, Relative: relative}, nil
}

// Render implements the experiment output contract.
func (r *Fig09Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 9: window-size sweep for ENERGY (tau=8) and RELATIVE (eps=0.3)"))
	sb.WriteString(renderSweep("ENERGY", "window", r.Energy))
	sb.WriteString(renderSweep("RELATIVE", "window", r.Relative))
	sb.WriteString("paper: large windows improve stability and cut update frequency at stable accuracy\n")
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig09Result) Headlines() []Headline {
	return []Headline{{Name: "upd%@maxw", Value: r.Energy[len(r.Energy)-1].MeanUpdateFraction * 100}}
}

// Fig10Result reproduces Figure 10: all four heuristics across their
// threshold ranges. The windowless heuristics can only trade accuracy
// for stability; the window-based ones keep both.
type Fig10Result struct {
	Energy      []SweepPoint
	Relative    []SweepPoint
	System      []SweepPoint
	Application []SweepPoint
}

// Fig10HeuristicComparison sweeps all four policies: Figure 8's two
// window-based sweeps plus the two windowless ones.
func Fig10HeuristicComparison(scale Scale) (*Fig10Result, error) {
	windowed, err := Fig08ThresholdSweep(scale)
	if err != nil {
		return nil, err
	}
	system, err := sweep(scale, energyTaus(), func(tau float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewSystem(dim, tau)
		}
	})
	if err != nil {
		return nil, err
	}
	application, err := sweep(scale, energyTaus(), func(tau float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewApplication(dim, tau)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Energy: windowed.Energy, Relative: windowed.Relative, System: system, Application: application}, nil
}

// Render implements the experiment output contract.
func (r *Fig10Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 10: all four heuristics vs threshold"))
	sb.WriteString(renderSweep("ENERGY (window 32)", "tau", r.Energy))
	sb.WriteString(renderSweep("RELATIVE (window 32)", "eps", r.Relative))
	sb.WriteString(renderSweep("SYSTEM", "tau", r.System))
	sb.WriteString(renderSweep("APPLICATION", "tau", r.Application))
	sb.WriteString("paper: windowless heuristics trade accuracy for stability; window-based keep both\n")
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig10Result) Headlines() []Headline {
	return []Headline{
		{Name: "sys-t256-err", Value: r.System[len(r.System)-1].MedianRelErr},
		{Name: "energy-t256-err", Value: r.Energy[len(r.Energy)-1].MedianRelErr},
	}
}

// Fig11Result reproduces Figure 11: application-level suppression vs the
// raw MP stream — full CDFs of per-node median error and instability.
type Fig11Result struct {
	EnergyMP   StreamCDFs
	RelativeMP StreamCDFs
	RawMP      StreamCDFs
}

// Fig11AppLevelCDFs runs ENERGY+MP and RELATIVE+MP and compares their
// app-level streams with the raw (Direct) MP stream.
func Fig11AppLevelCDFs(scale Scale) (*Fig11Result, error) {
	from, to := scale.MeasureFrom(), scale.DurationTicks

	energyRun, err := scale.recipe(mpFactory, func(dim int) (heuristic.Policy, error) {
		return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
	}).Run()
	if err != nil {
		return nil, err
	}
	energy, err := collectStreamCDFs("ENERGY + MP filter", energyRun.App(), from, to)
	if err != nil {
		return nil, err
	}
	relativeRun, err := scale.recipe(mpFactory, func(dim int) (heuristic.Policy, error) {
		return heuristic.NewRelative(dim, heuristic.DefaultWindow, heuristic.DefaultRelativeEpsilon)
	}).Run()
	if err != nil {
		return nil, err
	}
	relative, err := collectStreamCDFs("RELATIVE + MP filter", relativeRun.App(), from, to)
	if err != nil {
		return nil, err
	}
	// The raw MP stream is the system level of either run; reuse the
	// energy run's.
	raw, err := collectStreamCDFs("Raw MP filter", energyRun.Sys(), from, to)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{EnergyMP: energy, RelativeMP: relative, RawMP: raw}, nil
}

// Render implements the experiment output contract.
func (r *Fig11Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 11: application-level suppression vs raw MP stream"))
	sb.WriteString(renderStream(r.EnergyMP))
	sb.WriteString(renderStream(r.RelativeMP))
	sb.WriteString(renderStream(r.RawMP))
	sb.WriteString("paper: ENERGY and RELATIVE keep the raw filter's accuracy while shifting instability far left\n")
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig11Result) Headlines() []Headline {
	return []Headline{
		{Name: "energy-inst", Value: r.EnergyMP.Summary.MedianInstability},
		{Name: "raw-inst", Value: r.RawMP.Summary.MedianInstability},
	}
}

// Fig12Result reproduces Figure 12: the APPLICATION/CENTROID hybrid.
type Fig12Result struct {
	Points []SweepPoint
}

// Fig12ApplicationCentroid sweeps APPLICATION/CENTROID's threshold with
// the standard window of 32.
func Fig12ApplicationCentroid(scale Scale) (*Fig12Result, error) {
	pts, err := sweep(scale, energyTaus(), func(tau float64) sim.PolicyFactory {
		return func(dim int) (heuristic.Policy, error) {
			return heuristic.NewApplicationCentroid(dim, heuristic.DefaultWindow, tau)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Points: pts}, nil
}

// Render implements the experiment output contract.
func (r *Fig12Result) Render() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 12: APPLICATION/CENTROID threshold sweep (window 32)"))
	sb.WriteString(renderSweep("APPLICATION/CENTROID", "tau", r.Points))
	sb.WriteString("paper: more stable than plain APPLICATION, but gains stability only at accuracy's expense\n")
	return sb.String()
}

// Headlines implements the experiment output contract.
func (r *Fig12Result) Headlines() []Headline {
	return []Headline{{Name: "t256-err", Value: r.Points[len(r.Points)-1].MedianRelErr}}
}
