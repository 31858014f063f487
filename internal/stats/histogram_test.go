package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty bounds error = %v", err)
	}
	if _, err := NewHistogram([]float64{0, 10, 5}); err == nil {
		t.Fatal("non-ascending bounds accepted")
	}
	if _, err := NewHistogram([]float64{0, 0}); err == nil {
		t.Fatal("duplicate bounds accepted")
	}
}

func TestHistogramObserve(t *testing.T) {
	h, err := NewHistogram([]float64{0, 10, 20})
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, v := range []float64{0, 5, 9.999, 10, 15, 25, 1000} {
		h.Observe(v)
	}
	counts := h.counts
	if counts[0] != 3 {
		t.Errorf("bucket 0 = %d, want 3", counts[0])
	}
	if counts[1] != 2 {
		t.Errorf("bucket 1 = %d, want 2", counts[1])
	}
	if counts[2] != 2 {
		t.Errorf("bucket 2 = %d, want 2 (open-ended)", counts[2])
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
}

func TestHistogramDropsOutOfRange(t *testing.T) {
	h, err := NewHistogram([]float64{0, 10})
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	h.Observe(-1)
	h.Observe(math.NaN())
	if h.Total() != 0 {
		t.Fatalf("Total = %d, want 0 after invalid observations", h.Total())
	}
}

func TestFig2Bounds(t *testing.T) {
	bounds := Fig2Bounds()
	if len(bounds) != 13 {
		t.Fatalf("Fig2Bounds length = %d, want 13", len(bounds))
	}
	if bounds[0] != 0 || bounds[9] != 900 || bounds[10] != 1000 || bounds[12] != 3000 {
		t.Fatalf("Fig2Bounds = %v", bounds)
	}
}

func TestFig3Bounds(t *testing.T) {
	bounds := Fig3Bounds()
	if len(bounds) != 11 {
		t.Fatalf("Fig3Bounds length = %d, want 11", len(bounds))
	}
	if bounds[0] != 0 || bounds[10] != 2000 {
		t.Fatalf("Fig3Bounds = %v", bounds)
	}
}

func TestFractionAtOrAbove(t *testing.T) {
	h, err := NewHistogram(Fig2Bounds())
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	// 990 fast samples and 10 slow ones.
	for i := 0; i < 990; i++ {
		h.Observe(50)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1500)
	}
	if got := h.FractionAtOrAbove(1000); !almostEqual(got, 0.01, 1e-9) {
		t.Fatalf("FractionAtOrAbove(1000) = %v, want 0.01", got)
	}
	if got := h.FractionAtOrAbove(0); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("FractionAtOrAbove(0) = %v, want 1", got)
	}
}

func TestFractionAtOrAboveEmpty(t *testing.T) {
	h, err := NewHistogram(Fig2Bounds())
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	if got := h.FractionAtOrAbove(1000); got != 0 {
		t.Fatalf("FractionAtOrAbove on empty = %v", got)
	}
}

func TestBucketLabel(t *testing.T) {
	h, err := NewHistogram(Fig2Bounds())
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	tests := []struct {
		idx  int
		want string
	}{
		{idx: 0, want: "0-99"},
		{idx: 9, want: "900-999"},
		{idx: 10, want: "1000-1999"},
		{idx: 12, want: ">=3000"},
		{idx: -1, want: ""},
		{idx: 13, want: ""},
	}
	for _, tt := range tests {
		if got := h.BucketLabel(tt.idx); got != tt.want {
			t.Errorf("BucketLabel(%d) = %q, want %q", tt.idx, got, tt.want)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	h, err := NewHistogram([]float64{0, 100})
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for i := 0; i < 1000; i++ {
		h.Observe(10)
	}
	h.Observe(200)
	out := h.Render()
	if !strings.Contains(out, "0-99") || !strings.Contains(out, ">=100") {
		t.Fatalf("Render missing labels:\n%s", out)
	}
	if !strings.Contains(out, "####") {
		t.Fatalf("Render missing log-scale bar:\n%s", out)
	}
}

func TestHistogramManyBucketsBinarySearch(t *testing.T) {
	// More than 32 buckets exercises the binary-search path.
	bounds := make([]float64, 64)
	for i := range bounds {
		bounds[i] = float64(i * 10)
	}
	h, err := NewHistogram(bounds)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for v := 0.0; v < 640; v++ {
		h.Observe(v)
	}
	counts := h.counts
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("bucket %d = %d, want 10", i, c)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h, err := NewHistogram(Fig2Bounds())
	if err != nil {
		b.Fatalf("NewHistogram: %v", err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 4000))
	}
}
