package experiments

import (
	"os"
	"testing"
)

// BenchmarkExperiments regenerates every experiment in Table end to
// end, one sub-benchmark per id, and reports each one's headline
// numbers as custom metrics, so `go test -bench Experiments` doubles as
// the reproduction run; cmd/ncbench renders the full tables.
//
// NETCOORD_BENCH_SCALE selects the scale: "quick" (default; preserves
// every qualitative shape) or "paper" (269 nodes, four hours,
// per-second sampling — the paper's deployment).
func BenchmarkExperiments(b *testing.B) {
	scale := QuickScale()
	if os.Getenv("NETCOORD_BENCH_SCALE") == "paper" {
		scale = PaperScale()
	}
	for _, e := range Table() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := e.Run(scale)
				if err != nil {
					b.Fatal(err)
				}
				reportHeadline(b, r)
			}
		})
	}
}

// reportHeadline reports the numbers the paper's text quotes for the
// experiment r came from. Every experiment returns a result type of its
// own, so the type names the experiment as surely as its id does; a
// result with no case here fails the benchmark.
func reportHeadline(b *testing.B, r Result) {
	switch r := r.(type) {
	case *Fig02Result:
		b.ReportMetric(r.FractionAboveOneSecond*100, "%ge1s")
		b.ReportMetric(float64(r.Total), "samples")
	case *Fig03Result:
		b.ReportMetric(r.Max/r.Median, "max/median")
	case *Fig04Result:
		b.ReportMetric(float64(r.BestHistory), "best-h")
	case *Fig05Result:
		b.ReportMetric(r.MP.Summary.MedianRelErr, "mp-err")
		b.ReportMetric(r.Raw.Summary.MedianRelErr, "raw-err")
		b.ReportMetric(r.WorstInstabilityRatio, "tail-ratio")
	case *Table1Result:
		for _, row := range r.Rows {
			switch row.Name {
			case "MP Filter":
				b.ReportMetric(row.MedianRelErr, "mp-err")
			case "No Filter":
				b.ReportMetric(row.MedianRelErr, "none-err")
			case "EWMA a=0.20":
				b.ReportMetric(row.MedianRelErr, "ewma20-err")
			}
		}
	case *Fig06Result:
		b.ReportMetric(r.SteadyWith, "conf-with")
		b.ReportMetric(r.SteadyWithout, "conf-without")
	case *Fig07Result:
		b.ReportMetric(r.DriftRatio, "drift/path")
	case *Fig08Result:
		// The paper's recommended operating point.
		for _, p := range r.Energy {
			if p.Param == 8 {
				b.ReportMetric(p.MedianRelErr, "energy-t8-err")
				b.ReportMetric(p.MedianInstability, "energy-t8-inst")
			}
		}
	case *Fig09Result:
		b.ReportMetric(r.Energy[len(r.Energy)-1].MeanUpdateFraction*100, "upd%@maxw")
	case *Fig10Result:
		b.ReportMetric(r.System[len(r.System)-1].MedianRelErr, "sys-t256-err")
		b.ReportMetric(r.Energy[len(r.Energy)-1].MedianRelErr, "energy-t256-err")
	case *Fig11Result:
		b.ReportMetric(r.EnergyMP.Summary.MedianInstability, "energy-inst")
		b.ReportMetric(r.RawMP.Summary.MedianInstability, "raw-inst")
	case *Fig12Result:
		b.ReportMetric(r.Points[len(r.Points)-1].MedianRelErr, "t256-err")
	case *Fig13Result:
		b.ReportMetric(r.ErrImprovement*100, "%err-impr")
		b.ReportMetric(r.InstabilityImprovement*100, "%inst-impr")
		b.ReportMetric(r.Quiet*100, "%quiet")
	case *Fig14Result:
		b.ReportMetric(float64(r.ConvergedBy)/60, "conv-min")
	case *AblationStaticMatrixResult:
		b.ReportMetric(r.Static.MedianRelErr, "static-err")
		b.ReportMetric(r.Live.MedianRelErr, "live-err")
	case *AblationThresholdResult:
		for _, row := range r.Rows {
			if row.Name == "Cutoff 1000ms" {
				b.ReportMetric(row.MedianRelErr, "cutoff1s-err")
			}
		}
	case *AblationDampingResult:
		b.ReportMetric(r.DampedAfter/r.DampedBefore, "damped-degr")
		b.ReportMetric(r.MPAfter/r.MPBefore, "mp-degr")
	case *AblationWarmupResult:
		b.ReportMetric(r.ImmediateEarly, "early-inst-1")
		b.ReportMetric(r.WarmupEarly, "early-inst-2")
	case *ExtensionDetectorResult:
		b.ReportMetric(r.Energy.MedianRelErr, "energy-err")
		b.ReportMetric(r.RankSum.MedianRelErr, "ranksum-err")
	case *ExtensionChurnResult:
		b.ReportMetric(r.ImmediateTail, "p99-inst-w1")
		b.ReportMetric(r.WarmupTail, "p99-inst-w2")
	default:
		b.Fatalf("no headline metrics for %T", r)
	}
}
