package experiments

import (
	"os"
	"testing"
)

// BenchmarkExperiments regenerates every experiment in Table end to
// end, one sub-benchmark per id, and reports each one's Headlines as
// custom metrics, so `go test -bench Experiments` doubles as the
// reproduction run; cmd/ncbench renders the full tables.
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
				for _, h := range r.Headlines() {
					b.ReportMetric(h.Value, h.Name)
				}
			}
		})
	}
}
