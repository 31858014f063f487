package vec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZero(t *testing.T) {
	tests := []struct {
		name string
		dim  int
		want int
	}{
		{name: "three dims", dim: 3, want: 3},
		{name: "one dim", dim: 1, want: 1},
		{name: "zero dims", dim: 0, want: 0},
		{name: "negative clamps to empty", dim: -2, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := Zero(tt.dim)
			if v.Dim() != tt.want {
				t.Fatalf("Zero(%d).Dim() = %d, want %d", tt.dim, v.Dim(), tt.want)
			}
			for i, c := range v {
				if c != 0 {
					t.Errorf("component %d = %v, want 0", i, c)
				}
			}
		})
	}
}

func TestNewCopiesInput(t *testing.T) {
	src := []float64{1, 2, 3}
	v := New(src...)
	src[0] = 99
	if v[0] != 1 {
		t.Fatalf("New aliased its input: v[0] = %v, want 1", v[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New(1, 2, 3)
	w := v.Clone()
	w[1] = 42
	if v[1] != 2 {
		t.Fatalf("Clone aliased the original: v[1] = %v, want 2", v[1])
	}
}

func TestAdd(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Vector
		want    Vector
		wantErr bool
	}{
		{name: "basic", a: New(1, 2), b: New(3, 4), want: New(4, 6)},
		{name: "negative components", a: New(-1, 5, 0), b: New(1, -5, 0), want: New(0, 0, 0)},
		{name: "mismatch", a: New(1), b: New(1, 2), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.a.Add(tt.b)
			if tt.wantErr {
				if !errors.Is(err, ErrDimensionMismatch) {
					t.Fatalf("Add error = %v, want ErrDimensionMismatch", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			if !got.Equal(tt.want) {
				t.Fatalf("Add = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSub(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Vector
		want    Vector
		wantErr bool
	}{
		{name: "basic", a: New(4, 6), b: New(3, 4), want: New(1, 2)},
		{name: "self is zero", a: New(7, -2), b: New(7, -2), want: New(0, 0)},
		{name: "mismatch", a: New(1, 2, 3), b: New(1, 2), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.a.Sub(tt.b)
			if tt.wantErr {
				if !errors.Is(err, ErrDimensionMismatch) {
					t.Fatalf("Sub error = %v, want ErrDimensionMismatch", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Sub: %v", err)
			}
			if !got.Equal(tt.want) {
				t.Fatalf("Sub = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestScale(t *testing.T) {
	v := New(1, -2, 3)
	got := v.Scale(-2)
	want := New(-2, 4, -6)
	if !got.Equal(want) {
		t.Fatalf("Scale = %v, want %v", got, want)
	}
	if !v.Equal(New(1, -2, 3)) {
		t.Fatalf("Scale mutated its receiver: %v", v)
	}
}

func TestNorm(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{name: "pythagorean", v: New(3, 4), want: 5},
		{name: "zero", v: New(0, 0, 0), want: 0},
		{name: "unit", v: New(1), want: 1},
		{name: "3-4-12", v: New(3, 4, 12), want: 13},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Norm(); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Norm = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDist(t *testing.T) {
	a, b := New(1, 1), New(4, 5)
	got, err := a.Dist(b)
	if err != nil {
		t.Fatalf("Dist: %v", err)
	}
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if _, err := a.Dist(New(1)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("Dist mismatch error = %v", err)
	}
}

func TestIsFinite(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want bool
	}{
		{name: "finite", v: New(1, 2, 3), want: true},
		{name: "nan", v: New(1, math.NaN()), want: false},
		{name: "pos inf", v: New(math.Inf(1), 0), want: false},
		{name: "neg inf", v: New(0, math.Inf(-1)), want: false},
		{name: "empty", v: New(), want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.IsFinite(); got != tt.want {
				t.Fatalf("IsFinite = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCentroid(t *testing.T) {
	tests := []struct {
		name    string
		in      []Vector
		want    Vector
		wantErr bool
	}{
		{name: "pair", in: []Vector{New(0, 0), New(2, 4)}, want: New(1, 2)},
		{name: "single", in: []Vector{New(7, 8, 9)}, want: New(7, 8, 9)},
		{name: "empty", in: nil, wantErr: true},
		{name: "mismatch", in: []Vector{New(1), New(1, 2)}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Centroid(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatal("Centroid succeeded, want error")
				}
				return
			}
			if err != nil {
				t.Fatalf("Centroid: %v", err)
			}
			if !got.Equal(tt.want) {
				t.Fatalf("Centroid = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestString(t *testing.T) {
	if got := New(1, 2.5).String(); got != "[1.000, 2.500]" {
		t.Fatalf("String = %q", got)
	}
	if got := (Vector{}).String(); got != "[]" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: norm of the difference equals Dist, and the triangle
// inequality holds for random vectors.
func TestDistProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		a := New(clamp(ax), clamp(ay), clamp(az))
		b := New(clamp(bx), clamp(by), clamp(bz))
		c := New(clamp(cx), clamp(cy), clamp(cz))
		ab, _ := a.Dist(b)
		bc, _ := b.Dist(c)
		ac, _ := a.Dist(c)
		diff, _ := a.Sub(b)
		const eps = 1e-6
		if math.Abs(diff.Norm()-ab) > eps {
			return false
		}
		return ac <= ab+bc+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the centroid minimizes nothing fancy, but it must be
// translation-equivariant: centroid(v + t) = centroid(v) + t.
func TestCentroidTranslationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		vs := make([]Vector, n)
		shifted := make([]Vector, n)
		shift := New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		for i := range vs {
			vs[i] = New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			sv, err := vs[i].Add(shift)
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			shifted[i] = sv
		}
		c1, err := Centroid(vs)
		if err != nil {
			t.Fatalf("Centroid: %v", err)
		}
		c2, err := Centroid(shifted)
		if err != nil {
			t.Fatalf("Centroid shifted: %v", err)
		}
		want, err := c1.Add(shift)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		d, err := c2.Dist(want)
		if err != nil {
			t.Fatalf("Dist: %v", err)
		}
		if d > 1e-9 {
			t.Fatalf("trial %d: centroid not translation-equivariant, off by %v", trial, d)
		}
	}
}

func BenchmarkDist3D(b *testing.B) {
	v, w := New(1, 2, 3), New(4, 5, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := v.Dist(w); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScaleInPlace(t *testing.T) {
	v := New(1, -2, 3)
	v.ScaleInPlace(2)
	if !v.Equal(New(2, -4, 6)) {
		t.Fatalf("ScaleInPlace = %v, want [2, -4, 6]", v)
	}
}

func TestAddScaledInPlace(t *testing.T) {
	v := New(1, 1, 1)
	if err := v.AddScaledInPlace(New(1, 2, 3), 2); err != nil {
		t.Fatalf("AddScaledInPlace: %v", err)
	}
	if !v.Equal(New(3, 5, 7)) {
		t.Fatalf("AddScaledInPlace = %v, want [3, 5, 7]", v)
	}
	if err := v.AddScaledInPlace(New(1), 2); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mismatch error = %v", err)
	}
}

func TestSubScaleAddMatchesComposedOps(t *testing.T) {
	// The fused op must equal scale(sub(a, b), s) added in, including when
	// v aliases a — the exact shape of the Vivaldi force step.
	v := New(10, 20, 30)
	a := New(4, 5, 6)
	b := New(1, 3, 5)
	diff, err := a.Sub(b)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	want, err := v.Add(diff.Scale(0.5))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := v.SubScaleAdd(a, b, 0.5); err != nil {
		t.Fatalf("SubScaleAdd: %v", err)
	}
	if !v.Equal(want) {
		t.Fatalf("SubScaleAdd = %v, want %v", v, want)
	}
	// Aliased form: x += s*(x - b).
	x := New(2, 4, 6)
	wantAliased := New(2+0.5*(2-1), 4+0.5*(4-3), 6+0.5*(6-5))
	if err := x.SubScaleAdd(x, b, 0.5); err != nil {
		t.Fatalf("aliased SubScaleAdd: %v", err)
	}
	if !x.Equal(wantAliased) {
		t.Fatalf("aliased SubScaleAdd = %v, want %v", x, wantAliased)
	}
	if err := x.SubScaleAdd(a, New(1), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mismatch error = %v", err)
	}
}

func TestSet(t *testing.T) {
	v := Zero(3)
	if err := v.Set(New(7, 8, 9)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if !v.Equal(New(7, 8, 9)) {
		t.Fatalf("Set = %v", v)
	}
	if err := v.Set(New(1)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mismatch error = %v", err)
	}
}

func TestRandomUnitInto(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dst := Zero(3)
	for trial := 0; trial < 100; trial++ {
		RandomUnitInto(dst, rng.Float64)
		if d := math.Abs(dst.Norm() - 1); d > 1e-12 {
			t.Fatalf("trial %d: |norm-1| = %v", trial, d)
		}
	}
}

func TestColocated(t *testing.T) {
	if !Colocated(0) || !Colocated(zeroThreshold) {
		t.Fatal("threshold separations not classified co-located")
	}
	if Colocated(zeroThreshold * 1.01) {
		t.Fatal("clearly separated classified co-located")
	}
}

func TestHotPathVariantsDoNotAllocate(t *testing.T) {
	v, a, b := New(1, 2, 3), New(4, 5, 6), New(7, 8, 9)
	dst := Zero(3)
	rng := rand.New(rand.NewSource(9))
	allocs := testing.AllocsPerRun(200, func() {
		v.ScaleInPlace(0.5)
		_ = v.AddScaledInPlace(b, 0.25)
		_ = v.SubScaleAdd(a, b, 0.25)
		_ = v.Set(a)
		RandomUnitInto(dst, rng.Float64)
	})
	if allocs != 0 {
		t.Fatalf("hot-path variants allocated %v per run", allocs)
	}
}
