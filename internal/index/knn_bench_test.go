package index

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"netcoord/internal/bheap"
	"netcoord/internal/coord"
)

// clusteredPoint re-creates bench/gen's latency space (the module under
// bench/ cannot be imported from here): 3-D, eight Gaussian clusters of
// sigma 20 ms in a 300 ms cube, a 10 % uniform background, and a height
// in [0, 5) ms on every point — the distribution the end-to-end
// benchmark queries, and one whose metric is height-dominated enough to
// keep the candidate ball wide.
func clusteredPoint(centres *[8][3]float64, rng *rand.Rand) coord.Coordinate {
	v := make([]float64, 3)
	if rng.Float64() < 0.10 {
		for d := range v {
			v[d] = rng.Float64() * 300
		}
	} else {
		c := &centres[rng.IntN(len(centres))]
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()*20
		}
	}
	return coord.Coordinate{Vec: v, Height: rng.Float64() * 5}
}

// BenchmarkIndexKNN times one k=8 query over 100k clustered points held
// in one tree — the call Registry.Query makes per query. The
// sub-benchmark keeps the name its history is recorded under in
// BENCH_query.json.
func BenchmarkIndexKNN(b *testing.B) {
	const n, k, nQueries = 100_000, 8, 1024
	rng := rand.New(rand.NewPCG(1, 1))
	var centres [8][3]float64
	for c := range centres {
		for d := range centres[c] {
			centres[c][d] = rng.Float64() * 300
		}
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{ID: fmt.Sprintf("node-%07d", i), Coord: clusteredPoint(&centres, rng)}
	}
	queries := make([]coord.Coordinate, nQueries)
	for i := range queries {
		queries[i] = clusteredPoint(&centres, rng)
	}
	b.Run("shards=1", func(b *testing.B) {
		tree, err := Build(3, entries)
		if err != nil {
			b.Fatal(err)
		}
		h := bheap.New(k, NeighborBefore)
		var bound Bound
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Reset(k)
			bound.Reset(math.Inf(1))
			if err := tree.KNearestInto(queries[i%nQueries], k, h, &bound); err != nil {
				b.Fatal(err)
			}
		}
		if h.Len() != k {
			b.Fatalf("last query kept %d results, want %d", h.Len(), k)
		}
	})
}
