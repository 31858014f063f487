package stats

import (
	"errors"
	"math"
	"testing"

	"netcoord/internal/xrand"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentile(t *testing.T) {
	data := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		name string
		p    float64
		want float64
	}{
		{name: "min", p: 0, want: 15},
		{name: "max", p: 100, want: 50},
		{name: "median", p: 50, want: 35},
		{name: "p25", p: 25, want: 20},
		{name: "p75", p: 75, want: 40},
		{name: "interpolated", p: 10, want: 17}, // rank 0.4 between 15 and 20
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Percentile(data, tt.p)
			if err != nil {
				t.Fatalf("Percentile: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-9) {
				t.Fatalf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	data := []float64{3, 1, 2}
	if _, err := Percentile(data, 50); err != nil {
		t.Fatalf("Percentile: %v", err)
	}
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatalf("Percentile sorted its input: %v", data)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty error = %v", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Fatal("negative percentile succeeded")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Fatal("percentile > 100 succeeded")
	}
	// NaN is outside [0, 100] too; it used to index with int(NaN).
	if _, err := Percentile([]float64{1, 2}, math.NaN()); err == nil {
		t.Fatal("NaN percentile succeeded")
	}
	if _, err := PercentileSorted([]float64{1, 2}, math.NaN()); err == nil {
		t.Fatal("NaN percentile of sorted input succeeded")
	}
}

func TestPercentileSingleValue(t *testing.T) {
	for _, p := range []float64{0, 25, 50, 99, 100} {
		got, err := Percentile([]float64{42}, p)
		if err != nil {
			t.Fatalf("Percentile: %v", err)
		}
		if got != 42 {
			t.Fatalf("Percentile(p=%v) of singleton = %v", p, got)
		}
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := xrand.NewStream(1)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64() * 100
		}
		sorted := make([]float64, n)
		copy(sorted, data)
		// Insertion sort keeps the test independent of the stdlib sort
		// used inside Percentile.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		p := rng.Float64() * 100
		a, err := Percentile(data, p)
		if err != nil {
			t.Fatalf("Percentile: %v", err)
		}
		b, err := PercentileSorted(sorted, p)
		if err != nil {
			t.Fatalf("PercentileSorted: %v", err)
		}
		if !almostEqual(a, b, 1e-9) {
			t.Fatalf("trial %d: Percentile=%v PercentileSorted=%v", trial, a, b)
		}
	}
}

func TestMedianMean(t *testing.T) {
	data := []float64{1, 2, 3, 4, 100}
	med, err := Median(data)
	if err != nil {
		t.Fatalf("Median: %v", err)
	}
	if med != 3 {
		t.Fatalf("Median = %v, want 3", med)
	}
	mean, err := Mean(data)
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if mean != 22 {
		t.Fatalf("Mean = %v, want 22", mean)
	}
}

func TestBoxplot(t *testing.T) {
	// 1..11 plus one extreme outlier.
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100}
	b, err := BoxplotOf(data)
	if err != nil {
		t.Fatalf("BoxplotOf: %v", err)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.Max != 100 {
		t.Fatalf("Max = %v", b.Max)
	}
	if b.HighWhisker == 100 {
		t.Fatal("high whisker should exclude the outlier")
	}
	if b.Median < 5 || b.Median > 8 {
		t.Fatalf("Median = %v", b.Median)
	}
	if _, err := BoxplotOf(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("BoxplotOf empty = %v", err)
	}
}

func TestBoxplotNoOutliers(t *testing.T) {
	b, err := BoxplotOf([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("BoxplotOf: %v", err)
	}
	if len(b.Outliers) != 0 {
		t.Fatalf("Outliers = %v, want none", b.Outliers)
	}
	if b.LowWhisker != 1 || b.HighWhisker != 5 {
		t.Fatalf("whiskers = %v..%v, want 1..5", b.LowWhisker, b.HighWhisker)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{x: 0.5, want: 0},
		{x: 1, want: 0.25},
		{x: 2.5, want: 0.5},
		{x: 4, want: 1},
		{x: 99, want: 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) = %v", got)
	}
	if got := c.Quantile(0.5); !almostEqual(got, 2.5, 1e-9) {
		t.Fatalf("Quantile(0.5) = %v", got)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("NewCDF(nil) = %v", err)
	}
}

func TestCDFPoints(t *testing.T) {
	c, err := NewCDF([]float64{10, 20, 30, 40, 50})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	pts := c.Points(3)
	if len(pts) != 3 {
		t.Fatalf("Points(3) returned %d", len(pts))
	}
	if pts[0].X != 10 || pts[len(pts)-1].X != 50 {
		t.Fatalf("Points endpoints: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF points not monotone: %+v", pts)
		}
	}
	if got := c.Points(0); got != nil {
		t.Fatalf("Points(0) = %v", got)
	}
	if got := c.Points(100); len(got) != 5 {
		t.Fatalf("Points(100) len = %d, want clamped to 5", len(got))
	}
}

func TestCDFAtQuantileInverse(t *testing.T) {
	rng := xrand.NewStream(5)
	data := make([]float64, 500)
	for i := range data {
		data[i] = rng.Normal(100, 25)
	}
	c, err := NewCDF(data)
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		x := c.Quantile(q)
		p := c.At(x)
		if math.Abs(p-q) > 0.01 {
			t.Fatalf("At(Quantile(%v)) = %v", q, p)
		}
	}
}
