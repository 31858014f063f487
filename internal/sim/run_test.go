package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"netcoord/internal/filter"
	"netcoord/internal/heuristic"
	"netcoord/internal/metrics"
	"netcoord/internal/netsim"
	"netcoord/internal/trace"
	"netcoord/internal/vivaldi"
)

// runLengths are the trace lengths where a block pipeline can go wrong:
// nothing, less than a block, either side of one block, and a tail.
var runLengths = []int{0, 1, blockSamples - 1, blockSamples, blockSamples + 1, 3*blockSamples + 7}

// deployedRunner builds the paper's deployed configuration (MP filter,
// ENERGY policy) over the given nodes, with f in place of MP when set.
func deployedRunner(t *testing.T, nodes int, f filter.Factory) *Runner {
	t.Helper()
	if f == nil {
		f = mpFactory
	}
	vcfg := vivaldi.DefaultConfig()
	vcfg.Seed = 31
	r, err := NewRunner(Config{
		Nodes:   nodes,
		Vivaldi: vcfg,
		Filter:  f,
		Policy: func(dim int) (heuristic.Policy, error) {
			return heuristic.NewEnergy(dim, heuristic.DefaultWindow, heuristic.DefaultEnergyTau)
		},
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r
}

// stepAll is what Run must equal: the plain Next/Step loop on the
// caller's goroutine.
func stepAll(r *Runner, src trace.Source) error {
	for {
		s, ok := src.Next()
		if !ok {
			return nil
		}
		if err := r.Step(s); err != nil {
			return err
		}
	}
}

// runOutcome is everything a run leaves behind, coordinates as bits.
type runOutcome struct {
	samples, lost, last uint64
	sys, app            metrics.Summary
	sumErr              string
	coords              []uint64
}

func outcomeOf(t *testing.T, r *Runner, nodes int, sys, app metrics.Summary, sumErr error) runOutcome {
	t.Helper()
	out := runOutcome{samples: r.Samples(), lost: r.Lost(), last: r.LastTick(), sys: sys, app: app}
	if sumErr != nil {
		out.sumErr = sumErr.Error()
	}
	for i := 0; i < nodes; i++ {
		c, err := r.Coordinate(i)
		if err != nil {
			t.Fatalf("Coordinate(%d): %v", i, err)
		}
		a, err := r.AppCoordinate(i)
		if err != nil {
			t.Fatalf("AppCoordinate(%d): %v", i, err)
		}
		for _, v := range append(append(c.Vec, c.Height), append(a.Vec, a.Height)...) {
			out.coords = append(out.coords, math.Float64bits(v))
		}
	}
	return out
}

// generatorOfLength builds a generator over a fresh network whose trace
// is exactly n samples: n/nodes ticks in which every node samples once,
// one node sampling once for n = 1, and node 0 alone at tick 0 with its
// only neighbor not joined yet for n = 0.
func generatorOfLength(t *testing.T, n int) (*trace.Generator, int) {
	t.Helper()
	nodes, cfg := 2, trace.GeneratorConfig{IntervalTicks: 1, DurationTicks: 1, Seed: 4}
	switch n {
	case 0:
		cfg.JoinSpreadTicks = 1 << 40
	case 1:
		cfg.IntervalTicks = 2
	default:
		nodes = 8
		for n%nodes != 0 && nodes < 64 {
			nodes++
		}
		if n%nodes != 0 {
			nodes = 2
			for n%nodes != 0 {
				nodes++
			}
		}
		cfg.DurationTicks = uint64(n / nodes)
	}
	net, err := netsim.New(netsim.DefaultWideArea(nodes, 3))
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	g, err := trace.NewGenerator(net, cfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g, nodes
}

// TestRunEqualsStepLoop pins the reader pipeline to what it replaced: for
// a generator, an in-memory slice and a decoded trace file, at every
// length around a block boundary, Run leaves the counters, both
// summaries and every node's system and application coordinate
// bit-identical to the plain Next/Step loop.
func TestRunEqualsStepLoop(t *testing.T) {
	const sliceNodes = 16
	long := trace.Collect(wideAreaTrace(t, sliceNodes, uint64(runLengths[len(runLengths)-1]/sliceNodes+1), 6), 0)
	encode := func(samples []trace.Sample) []byte {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, s := range samples {
			if err := w.Write(s); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return buf.Bytes()
	}
	type source struct {
		name  string
		nodes int
		open  func() trace.Source // a fresh source per call, same trace
	}
	for _, n := range runLengths {
		_, genNodes := generatorOfLength(t, n)
		file := encode(long[:n])
		for _, src := range []source{
			{"generator", genNodes, func() trace.Source { g, _ := generatorOfLength(t, n); return g }},
			{"slice", sliceNodes, func() trace.Source { return trace.NewSliceSource(long[:n]) }},
			{"reader", sliceNodes, func() trace.Source { return trace.NewReader(bytes.NewReader(file)) }},
		} {
			t.Run(fmt.Sprintf("%s/n=%d", src.name, n), func(t *testing.T) {
				ref := deployedRunner(t, src.nodes, nil)
				if err := stepAll(ref, src.open()); err != nil {
					t.Fatalf("step loop: %v", err)
				}
				if ref.Samples() != uint64(n) {
					t.Fatalf("step loop saw %d samples, want %d", ref.Samples(), n)
				}
				sys, err := ref.Sys().Summarize(0, ref.LastTick())
				if err != nil {
					t.Fatalf("Sys().Summarize: %v", err)
				}
				app, err := ref.App().Summarize(0, ref.LastTick())
				want := outcomeOf(t, ref, src.nodes, sys, app, err)

				r := deployedRunner(t, src.nodes, nil)
				s := src.open()
				if err := r.Run(s); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if rd, ok := s.(*trace.Reader); ok {
					if err := rd.Err(); err != nil {
						t.Fatalf("Reader.Err after Run: %v", err)
					}
				}
				sys, app, err = r.Summarize(0, r.LastTick())
				if got := outcomeOf(t, r, src.nodes, sys, app, err); !reflect.DeepEqual(got, want) {
					t.Fatalf("Run differs from the step loop:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// countingSource counts Next calls in plain fields: the race detector
// flags any Next that runs after Run has returned and the test reads
// them.
type countingSource struct {
	inner trace.Source
	calls int
}

func (c *countingSource) Next() (trace.Sample, bool) {
	c.calls++
	return c.inner.Next()
}

// panicRTT is the one RTT panicFilter refuses to survive.
const panicRTT = 1234.5

type panicFilter struct{}

func (panicFilter) Observe(rtt float64) (float64, bool) {
	if rtt == panicRTT {
		panic("panicFilter: poisoned sample")
	}
	return rtt, true
}

func (panicFilter) Reset() {}

// TestRunStopsReaderOnEveryExit places a bad sample mid-way through the
// second block — a self-sample, an out-of-range node, and a sample that
// makes a filter panic — and requires Run to return that error (or let
// the panic through) having stepped nothing past it and read at most a
// few blocks ahead, with its reader joined: no goroutine left over and
// no Next after Run returns.
func TestRunStopsReaderOnEveryExit(t *testing.T) {
	const nodes = 16
	const badAt = blockSamples + blockSamples/2
	clean := trace.Collect(wideAreaTrace(t, nodes, 8*blockSamples/nodes+1, 9), 0)
	for _, tc := range []struct {
		name    string
		poison  func(*trace.Sample)
		filter  filter.Factory
		want    string
		stepped uint64 // Samples() afterwards: a panic strikes after the count
	}{
		{"self-sample", func(s *trace.Sample) { s.To = s.From }, nil, errSelfSample.Error(), badAt},
		{"out-of-range", func(s *trace.Sample) { s.To = nodes + 3 }, nil, "outside [0, 16)", badAt},
		{"panic", func(s *trace.Sample) { s.RTT, s.Lost = panicRTT, false },
			func() filter.Filter { return panicFilter{} }, "poisoned sample", badAt + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			samples := append([]trace.Sample(nil), clean...)
			tc.poison(&samples[badAt])
			r := deployedRunner(t, nodes, tc.filter)
			src := &countingSource{inner: trace.NewSliceSource(samples)}
			before := runtime.NumGoroutine()
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				err = r.Run(src)
			}()
			calls := src.calls
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after Run, %d before: the reader outlived it", n, before)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
			if r.Samples() != tc.stepped {
				t.Fatalf("Run counted %d samples, want %d (bad sample at %d)", r.Samples(), tc.stepped, badAt)
			}
			if lim := (badAt/blockSamples + runBlocks) * blockSamples; calls <= badAt || calls > lim {
				t.Fatalf("source read %d times; want past the bad sample (%d) and at most %d", calls, badAt, lim)
			}
		})
	}
}
