package coord

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"netcoord/internal/vec"
)

func TestOrigin(t *testing.T) {
	c := Origin(3)
	if c.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", c.Dim())
	}
	if c.Height != 0 {
		t.Fatalf("Height = %v, want 0", c.Height)
	}
	for i, comp := range c.Vec {
		if comp != 0 {
			t.Fatalf("component %d = %v, want 0", i, comp)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New(1, 2, 3)
	d := c.Clone()
	d.Vec[0] = 99
	if c.Vec[0] != 1 {
		t.Fatal("Clone aliased the underlying vector")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		c       Coordinate
		dim     int
		wantErr bool
	}{
		{name: "valid", c: New(1, 2, 3), dim: 3},
		{name: "valid with height", c: Coordinate{Vec: vec.New(1, 2, 3), Height: 5}, dim: 3},
		{name: "wrong dimension", c: New(1, 2), dim: 3, wantErr: true},
		{name: "nan component", c: New(1, math.NaN(), 3), dim: 3, wantErr: true},
		{name: "inf component", c: New(math.Inf(1), 0, 0), dim: 3, wantErr: true},
		{name: "negative height", c: Coordinate{Vec: vec.New(1, 2, 3), Height: -1}, dim: 3, wantErr: true},
		{name: "nan height", c: Coordinate{Vec: vec.New(1, 2, 3), Height: math.NaN()}, dim: 3, wantErr: true},
		{name: "inf height", c: Coordinate{Vec: vec.New(1, 2, 3), Height: math.Inf(1)}, dim: 3, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.c.Validate(tt.dim)
			if tt.wantErr {
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("Validate = %v, want ErrInvalid", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestDistanceTo(t *testing.T) {
	tests := []struct {
		name string
		a, b Coordinate
		want float64
	}{
		{name: "pure euclidean", a: New(0, 0, 0), b: New(3, 4, 0), want: 5},
		{
			name: "heights add",
			a:    Coordinate{Vec: vec.New(0, 0, 0), Height: 2},
			b:    Coordinate{Vec: vec.New(3, 4, 0), Height: 1},
			want: 8,
		},
		{name: "identical", a: New(1, 1, 1), b: New(1, 1, 1), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.a.DistanceTo(tt.b)
			if err != nil {
				t.Fatalf("DistanceTo: %v", err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("DistanceTo = %v, want %v", got, tt.want)
			}
			// Distance must be symmetric.
			rev, err := tt.b.DistanceTo(tt.a)
			if err != nil {
				t.Fatalf("reverse DistanceTo: %v", err)
			}
			if rev != got {
				t.Fatalf("asymmetric distance: %v vs %v", got, rev)
			}
		})
	}
}

func TestDistanceToDimensionMismatch(t *testing.T) {
	if _, err := New(1, 2).DistanceTo(New(1, 2, 3)); err == nil {
		t.Fatal("DistanceTo across dimensions succeeded, want error")
	}
}

func TestDisplacementFrom(t *testing.T) {
	a := Coordinate{Vec: vec.New(0, 0, 0), Height: 1}
	b := Coordinate{Vec: vec.New(3, 4, 0), Height: 3}
	got, err := b.DisplacementFrom(a)
	if err != nil {
		t.Fatalf("DisplacementFrom: %v", err)
	}
	if got != 7 { // 5 euclidean + |3-1| height
		t.Fatalf("DisplacementFrom = %v, want 7", got)
	}
}

func TestEqual(t *testing.T) {
	a := New(1, 2, 3)
	if !a.Equal(New(1, 2, 3)) {
		t.Fatal("identical coordinates not Equal")
	}
	if a.Equal(New(1, 2, 4)) {
		t.Fatal("different coordinates Equal")
	}
	if a.Equal(Coordinate{Vec: vec.New(1, 2, 3), Height: 1}) {
		t.Fatal("different heights Equal")
	}
}

func TestString(t *testing.T) {
	if got := New(1, 2).String(); got != "[1.000, 2.000]" {
		t.Fatalf("String = %q", got)
	}
	withHeight := Coordinate{Vec: vec.New(1, 2), Height: 3}
	if got := withHeight.String(); got != "[1.000, 2.000]+h3.000" {
		t.Fatalf("String with height = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Coordinate{Vec: vec.New(1.5, -2.25, 3), Height: 0.75}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Coordinate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !back.Equal(orig) {
		t.Fatalf("round trip: got %v, want %v", back, orig)
	}
}

// TestJSONUnmarshalOwnsItsVector: the decoded vector is the decoder's
// own allocation — rewriting the input bytes, or decoding them again,
// leaves it alone — and a null or missing vec still decodes empty.
func TestJSONUnmarshalOwnsItsVector(t *testing.T) {
	data := []byte(`{"vec":[1.5,-2.25,3],"height":0.75}`)
	var a, b Coordinate
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = '9'
	}
	b.Vec[0] = 42
	want := Coordinate{Vec: vec.New(1.5, -2.25, 3), Height: 0.75}
	if !a.Equal(want) || len(a.Vec) != 3 {
		t.Fatalf("decoded %v changed with its input or its sibling, want %v", a, want)
	}
	for _, in := range []string{`{"vec":null}`, `{}`} {
		var c Coordinate
		if err := json.Unmarshal([]byte(in), &c); err != nil {
			t.Fatal(err)
		}
		if c.Vec == nil || len(c.Vec) != 0 {
			t.Fatalf("%s decoded vec %#v, want empty and non-nil", in, c.Vec)
		}
	}
}

func TestJSONUnmarshalInvalid(t *testing.T) {
	var c Coordinate
	if err := json.Unmarshal([]byte(`{"vec": "nope"}`), &c); err == nil {
		t.Fatal("Unmarshal of invalid JSON succeeded")
	}
}

func TestCentroid(t *testing.T) {
	cs := []Coordinate{
		{Vec: vec.New(0, 0), Height: 1},
		{Vec: vec.New(2, 4), Height: 3},
	}
	got, err := Centroid(cs)
	if err != nil {
		t.Fatalf("Centroid: %v", err)
	}
	if !got.Vec.Equal(vec.New(1, 2)) || got.Height != 2 {
		t.Fatalf("Centroid = %v", got)
	}
}

func TestCentroidEmpty(t *testing.T) {
	if _, err := Centroid(nil); err == nil {
		t.Fatal("Centroid of empty set succeeded")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		c    Coordinate
	}{
		{name: "3d", c: New(1.5, -2.5, 1e6)},
		{name: "3d with height", c: Coordinate{Vec: vec.New(0.1, 0.2, 0.3), Height: 12.5}},
		{name: "2d", c: New(-7, 9)},
		{name: "0d", c: Origin(0)},
		{name: "8d", c: New(1, 2, 3, 4, 5, 6, 7, 8)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf, err := tt.c.Encode(nil)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(buf) != EncodedSize(tt.c.Dim()) {
				t.Fatalf("encoded %d bytes, want %d", len(buf), EncodedSize(tt.c.Dim()))
			}
			got, rest, err := Decode(buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("Decode left %d bytes", len(rest))
			}
			if !got.Equal(tt.c) {
				t.Fatalf("round trip: got %v, want %v", got, tt.c)
			}
		})
	}
}

func TestDecodeLeavesTrailingBytes(t *testing.T) {
	buf, err := New(1, 2, 3).Encode(nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	buf = append(buf, 0xAA, 0xBB)
	_, rest, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("rest = %x, want aa bb", rest)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{name: "empty", buf: nil},
		{name: "truncated", buf: []byte{3, 0, 0}},
		{name: "oversized dimension", buf: []byte{200}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Decode(tt.buf); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Decode = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestEncodeRejectsOversizedDimension(t *testing.T) {
	c := Origin(MaxDimension + 1)
	if _, err := c.Encode(nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Encode = %v, want ErrInvalid", err)
	}
}

// Property: binary encode/decode is lossless for arbitrary finite
// coordinates.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(a, b, c float64, h float64) bool {
		sanitize := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return x
		}
		orig := Coordinate{
			Vec:    vec.New(sanitize(a), sanitize(b), sanitize(c)),
			Height: math.Abs(sanitize(h)),
		}
		buf, err := orig.Encode(nil)
		if err != nil {
			return false
		}
		got, rest, err := Decode(buf)
		return err == nil && len(rest) == 0 && got.Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality holds for the height-augmented metric.
func TestHeightMetricTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, ha, hb, hc float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e4)
		}
		a := Coordinate{Vec: vec.New(clamp(ax), clamp(ay)), Height: math.Abs(clamp(ha))}
		b := Coordinate{Vec: vec.New(clamp(bx), clamp(by)), Height: math.Abs(clamp(hb))}
		c := Coordinate{Vec: vec.New(clamp(cx), clamp(cy)), Height: math.Abs(clamp(hc))}
		ab, _ := a.DistanceTo(b)
		bc, _ := b.DistanceTo(c)
		ac, _ := a.DistanceTo(c)
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistanceTo(b *testing.B) {
	x, y := New(1, 2, 3), New(4, 5, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := x.DistanceTo(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	c := New(1, 2, 3)
	buf := make([]byte, 0, EncodedSize(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = c.Encode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	dst := Origin(3)
	buf := dst.Vec // backing array must be reused on same-dim copies
	src := Coordinate{Vec: []float64{1, 2, 3}, Height: 4}
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom = %v, want %v", dst, src)
	}
	if &buf[0] != &dst.Vec[0] {
		t.Fatal("same-dimension CopyFrom reallocated the vector")
	}
	// Mutating the source afterwards must not leak into the copy.
	src.Vec[0] = 99
	if dst.Vec[0] == 99 {
		t.Fatal("CopyFrom aliased the source")
	}
	// Dimension change falls back to a fresh clone.
	var zero Coordinate
	zero.CopyFrom(src)
	if !zero.Equal(src) {
		t.Fatalf("growing CopyFrom = %v, want %v", zero, src)
	}
	allocs := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) })
	if allocs != 0 {
		t.Fatalf("same-dimension CopyFrom allocated %v per run", allocs)
	}
}
