package window

import (
	"testing"

	"netcoord/internal/vec"
	"netcoord/internal/xrand"
)

// BenchmarkPairAppendRestarts is BenchmarkPairAppendIncrementalEnergy on
// a stream that changes level every 44 points, with the windows reset
// whenever the energy passes ENERGY's τ = 8, as the heuristic's restart
// benchmark does: a fill, its fill-time build and about 12 slides per
// restart, most of them while fill points are still in Wc.
// BenchmarkPairAppendIncrementalEnergy's stream is stationary, so it
// only ever slides past k.
func BenchmarkPairAppendRestarts(b *testing.B) {
	const tau = 8
	p, err := NewPair(32, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.NewStream(1)
	pts := make([]vec.Vector, 44*2*12)
	for i := range pts {
		level := 50 + 30*float64(i/44%2)
		pts[i] = vec.New(rng.Normal(level, 1), rng.Normal(50, 1), rng.Normal(50, 1))
	}
	restarts := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Append(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
		if !p.Full() {
			continue
		}
		e, err := p.Energy()
		if err != nil {
			b.Fatal(err)
		}
		if e > tau {
			p.Reset()
			restarts++
		}
	}
	if restarts > 0 {
		b.ReportMetric(float64(b.N)/float64(restarts), "appends/restart")
	}
}
