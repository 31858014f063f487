package metrics

import (
	"math"
	"reflect"
	"testing"

	"netcoord/internal/stats"
	"netcoord/internal/xrand"
)

func mustCollector(t *testing.T, nodes int) *Collector {
	t.Helper()
	c, err := NewCollector(nodes)
	if err != nil {
		t.Fatalf("NewCollector: %v", err)
	}
	return c
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	c := mustCollector(t, 3)
	if c.Nodes() != 3 {
		t.Fatalf("Nodes = %d", c.Nodes())
	}
}

func TestRecordErrorValidation(t *testing.T) {
	c := mustCollector(t, 2)
	if err := c.RecordError(-1, 0, 0.5); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := c.RecordError(2, 0, 0.5); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// NaN/Inf are silently dropped, not errors.
	if err := c.RecordError(0, 0, math.NaN()); err != nil {
		t.Fatalf("NaN error sample: %v", err)
	}
	if err := c.RecordError(0, 0, math.Inf(1)); err != nil {
		t.Fatalf("Inf error sample: %v", err)
	}
	got, err := c.PerNodeErrorQuantile(50, 0, 100)
	if err != nil {
		t.Fatalf("PerNodeErrorQuantile: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("non-finite samples were recorded: %v", got)
	}
}

func TestRecordMovementValidation(t *testing.T) {
	c := mustCollector(t, 2)
	if err := c.RecordMovement(0, 0, -1, false); err == nil {
		t.Fatal("negative displacement accepted")
	}
	if err := c.RecordMovement(0, 0, math.NaN(), false); err == nil {
		t.Fatal("NaN displacement accepted")
	}
	if err := c.RecordMovement(5, 0, 1, false); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestPerNodeErrorQuantile(t *testing.T) {
	c := mustCollector(t, 3)
	// Node 0: errors 0.1..1.0; node 1: constant 0.5; node 2: no data.
	for i := 1; i <= 10; i++ {
		if err := c.RecordError(0, uint64(i), float64(i)/10); err != nil {
			t.Fatalf("RecordError: %v", err)
		}
	}
	for i := 1; i <= 5; i++ {
		if err := c.RecordError(1, uint64(i), 0.5); err != nil {
			t.Fatalf("RecordError: %v", err)
		}
	}
	meds, err := c.PerNodeErrorQuantile(50, 0, 100)
	if err != nil {
		t.Fatalf("PerNodeErrorQuantile: %v", err)
	}
	if len(meds) != 2 {
		t.Fatalf("got %d nodes with data, want 2", len(meds))
	}
	if math.Abs(meds[0]-0.55) > 1e-9 {
		t.Fatalf("node 0 median = %v, want 0.55", meds[0])
	}
	if meds[1] != 0.5 {
		t.Fatalf("node 1 median = %v, want 0.5", meds[1])
	}
}

func TestQuantileWindowFiltering(t *testing.T) {
	c := mustCollector(t, 1)
	// First half bad (1.0), second half good (0.1) — like a warm-up.
	for tick := uint64(0); tick < 100; tick++ {
		v := 1.0
		if tick >= 50 {
			v = 0.1
		}
		if err := c.RecordError(0, tick, v); err != nil {
			t.Fatalf("RecordError: %v", err)
		}
	}
	full, err := c.PerNodeErrorQuantile(50, 0, 99)
	if err != nil {
		t.Fatalf("PerNodeErrorQuantile: %v", err)
	}
	second, err := c.PerNodeErrorQuantile(50, 50, 99)
	if err != nil {
		t.Fatalf("PerNodeErrorQuantile: %v", err)
	}
	if second[0] != 0.1 {
		t.Fatalf("second-half median = %v, want 0.1", second[0])
	}
	if full[0] <= second[0] {
		t.Fatalf("full median %v should exceed second-half %v", full[0], second[0])
	}
}

func TestInstabilitySeries(t *testing.T) {
	c := mustCollector(t, 2)
	// Tick 0: both nodes move 3 and 4; tick 1: nothing; tick 2: one
	// moves 5.
	if err := c.RecordMovement(0, 0, 3, true); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	if err := c.RecordMovement(1, 0, 4, true); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	if err := c.RecordMovement(0, 2, 5, true); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	got := c.InstabilitySeries(0, 2)
	want := []float64{7, 0, 5}
	if len(got) != 3 {
		t.Fatalf("series length %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
	// Quiet middle second must appear as zero — that is what the
	// application-level CDFs depend on.
	if got[1] != 0 {
		t.Fatal("quiet second missing from series")
	}
}

func TestInstabilitySeriesWindowClamping(t *testing.T) {
	c := mustCollector(t, 1)
	if err := c.RecordMovement(0, 5, 1, true); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	if got := c.InstabilitySeries(0, 100); len(got) != 6 {
		t.Fatalf("series length %d, want clamped to 6", len(got))
	}
	if got := c.InstabilitySeries(10, 5); got != nil {
		t.Fatalf("inverted window returned %v", got)
	}
}

func TestUpdateFractionSeries(t *testing.T) {
	c := mustCollector(t, 4)
	// Tick 0: 2 of 4 nodes update; tick 1: movement without update.
	if err := c.RecordMovement(0, 0, 1, true); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	if err := c.RecordMovement(1, 0, 1, true); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	if err := c.RecordMovement(2, 1, 1, false); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	got := c.UpdateFractionSeries(0, 1)
	if got[0] != 0.5 {
		t.Fatalf("tick 0 fraction = %v, want 0.5", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("tick 1 fraction = %v, want 0", got[1])
	}
}

func TestSummarize(t *testing.T) {
	c := mustCollector(t, 2)
	for tick := uint64(0); tick < 10; tick++ {
		if err := c.RecordError(0, tick, 0.1); err != nil {
			t.Fatalf("RecordError: %v", err)
		}
		if err := c.RecordError(1, tick, 0.3); err != nil {
			t.Fatalf("RecordError: %v", err)
		}
		if err := c.RecordMovement(0, tick, 2, tick%2 == 0); err != nil {
			t.Fatalf("RecordMovement: %v", err)
		}
		if err := c.RecordMovement(1, tick, 4, false); err != nil {
			t.Fatalf("RecordMovement: %v", err)
		}
	}
	s, err := c.Summarize(0, 9)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if math.Abs(s.MedianRelErr-0.2) > 1e-9 {
		t.Fatalf("MedianRelErr = %v, want 0.2 (median of {0.1, 0.3})", s.MedianRelErr)
	}
	if s.MedianInstability != 6 {
		t.Fatalf("MedianInstability = %v, want 6", s.MedianInstability)
	}
	if s.MeanInstability != 6 {
		t.Fatalf("MeanInstability = %v, want 6", s.MeanInstability)
	}
	// Node 0 updates on even ticks: fraction alternates 0.5/0 -> mean
	// 0.25.
	if math.Abs(s.MeanUpdateFraction-0.25) > 1e-9 {
		t.Fatalf("MeanUpdateFraction = %v, want 0.25", s.MeanUpdateFraction)
	}
}

func TestSummarizeEmptyWindow(t *testing.T) {
	c := mustCollector(t, 2)
	s, err := c.Summarize(0, 10)
	if err != nil {
		t.Fatalf("Summarize on empty collector: %v", err)
	}
	if s.MedianRelErr != 0 || s.MeanInstability != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestIntervals(t *testing.T) {
	c := mustCollector(t, 1)
	// 30 ticks: error improves by 10-tick interval.
	for tick := uint64(0); tick < 30; tick++ {
		v := 1.0
		switch {
		case tick >= 20:
			v = 0.1
		case tick >= 10:
			v = 0.5
		}
		if err := c.RecordError(0, tick, v); err != nil {
			t.Fatalf("RecordError: %v", err)
		}
		if err := c.RecordMovement(0, tick, v*10, true); err != nil {
			t.Fatalf("RecordMovement: %v", err)
		}
	}
	ivs, err := c.Intervals(10)
	if err != nil {
		t.Fatalf("Intervals: %v", err)
	}
	if len(ivs) != 3 {
		t.Fatalf("%d intervals, want 3", len(ivs))
	}
	if ivs[0].MedianRelErr != 1.0 || ivs[1].MedianRelErr != 0.5 || ivs[2].MedianRelErr != 0.1 {
		t.Fatalf("interval medians: %v %v %v", ivs[0].MedianRelErr, ivs[1].MedianRelErr, ivs[2].MedianRelErr)
	}
	if ivs[0].StartTick != 0 || ivs[1].StartTick != 10 || ivs[2].StartTick != 20 {
		t.Fatal("interval starts wrong")
	}
	if ivs[2].MeanInstability >= ivs[0].MeanInstability {
		t.Fatal("instability should decline across intervals")
	}
	if ivs[0].Samples != 10 {
		t.Fatalf("Samples = %d", ivs[0].Samples)
	}
	if _, err := c.Intervals(0); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestPerNodeMovementQuantile(t *testing.T) {
	c := mustCollector(t, 1)
	for i := 1; i <= 100; i++ {
		if err := c.RecordMovement(0, uint64(i), float64(i), false); err != nil {
			t.Fatalf("RecordMovement: %v", err)
		}
	}
	p95, err := c.PerNodeMovementQuantile(95, 0, 1000)
	if err != nil {
		t.Fatalf("PerNodeMovementQuantile: %v", err)
	}
	if len(p95) != 1 || p95[0] < 94 || p95[0] > 97 {
		t.Fatalf("p95 movement = %v", p95)
	}
}

func TestAllErrorsPools(t *testing.T) {
	c := mustCollector(t, 2)
	if err := c.RecordError(0, 1, 0.1); err != nil {
		t.Fatalf("RecordError: %v", err)
	}
	if err := c.RecordError(1, 2, 0.2); err != nil {
		t.Fatalf("RecordError: %v", err)
	}
	all := c.AllErrors(0, 10)
	if len(all) != 2 {
		t.Fatalf("AllErrors = %v", all)
	}
}

func BenchmarkRecord(b *testing.B) {
	c, err := NewCollector(100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		node := i % 100
		tick := uint64(i / 100)
		if err := c.RecordError(node, tick, 0.1); err != nil {
			b.Fatal(err)
		}
		if err := c.RecordMovement(node, tick, 1.5, i%7 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSortOnceMatchesSortPerQuantile holds Summarize, the PerNode*
// quantiles and Intervals — which sort each window once and read every
// percentile from it — to what one stats.Percentile call per value (a
// copy and a sort each) returns, bit for bit, on a seeded collector with
// an empty node and a one-sample node among the busy ones.
func TestSortOnceMatchesSortPerQuantile(t *testing.T) {
	const nodes, ticks = 6, 400
	c := mustCollector(t, nodes)
	rng := xrand.NewStream(21)
	for tick := uint64(0); tick < ticks; tick++ {
		for n := 0; n < nodes-2; n++ { // node 4 gets one sample, node 5 none
			if err := c.RecordError(n, tick, rng.Pareto(0.02, 1.5)); err != nil {
				t.Fatalf("RecordError: %v", err)
			}
			if err := c.RecordMovement(n, tick, rng.Exponential(3), rng.Bernoulli(0.1)); err != nil {
				t.Fatalf("RecordMovement: %v", err)
			}
		}
	}
	if err := c.RecordError(4, 250, 0.5); err != nil {
		t.Fatalf("RecordError: %v", err)
	}
	if err := c.RecordMovement(4, 250, 2, true); err != nil {
		t.Fatalf("RecordMovement: %v", err)
	}
	const from, to = ticks / 2, ticks
	window := func(s *series) []float64 { return s.appendTo(nil, from, to) }
	percentile := func(vals []float64, q float64) float64 {
		t.Helper()
		v, err := stats.Percentile(vals, q)
		if err != nil {
			t.Fatalf("Percentile: %v", err)
		}
		return v
	}
	perNode := func(ss []series, q float64) []float64 {
		out := []float64{}
		for i := range ss {
			if vals := window(&ss[i]); len(vals) > 0 {
				out = append(out, percentile(vals, q))
			}
		}
		return out
	}

	for _, q := range []float64{0, 50, 95, 100} {
		got, err := c.PerNodeErrorQuantile(q, from, to)
		if err != nil || !reflect.DeepEqual(got, perNode(c.errs, q)) {
			t.Fatalf("PerNodeErrorQuantile(%v) = %v, %v; want %v", q, got, err, perNode(c.errs, q))
		}
		got, err = c.PerNodeMovementQuantile(q, from, to)
		if err != nil || !reflect.DeepEqual(got, perNode(c.moves, q)) {
			t.Fatalf("PerNodeMovementQuantile(%v) = %v, %v; want %v", q, got, err, perNode(c.moves, q))
		}
	}
	both, err := c.PerNodeErrorQuantiles(from, to, 50, 95)
	if err != nil || len(both) != 2 || len(both[0]) != nodes-1 ||
		!reflect.DeepEqual(both[0], perNode(c.errs, 50)) || !reflect.DeepEqual(both[1], perNode(c.errs, 95)) {
		t.Fatalf("PerNodeErrorQuantiles(50, 95) = %v, %v", both, err)
	}
	if _, err := c.PerNodeErrorQuantile(math.NaN(), from, to); err == nil {
		t.Fatal("NaN quantile accepted")
	}

	sum, err := c.Summarize(from, to)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if want := percentile(perNode(c.errs, 50), 50); sum.MedianRelErr != want {
		t.Fatalf("MedianRelErr = %v, want %v", sum.MedianRelErr, want)
	}
	if want := percentile(perNode(c.errs, 95), 50); sum.P95RelErrMedian != want {
		t.Fatalf("P95RelErrMedian = %v, want %v", sum.P95RelErrMedian, want)
	}

	ivs, err := c.Intervals(150)
	if err != nil || len(ivs) != 3 {
		t.Fatalf("Intervals = %d buckets, %v", len(ivs), err)
	}
	for _, iv := range ivs {
		pooled := c.AllErrors(iv.StartTick, iv.StartTick+149)
		if iv.Samples != len(pooled) || iv.MedianRelErr != percentile(pooled, 50) || iv.P95RelErr != percentile(pooled, 95) {
			t.Fatalf("bucket %d: %d samples, median %v, p95 %v; want %d, %v, %v", iv.StartTick,
				iv.Samples, iv.MedianRelErr, iv.P95RelErr, len(pooled), percentile(pooled, 50), percentile(pooled, 95))
		}
	}
}
