package coord

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
)

// stdlibJSON renders c through encoding/json's reflection encoder alone,
// bypassing MarshalJSON: the reference AppendJSON must match.
func stdlibJSON(c Coordinate) ([]byte, error) {
	return json.Marshal(coordinateJSON{Vec: c.Vec, Height: c.Height})
}

// TestAppendJSONMatchesStdlib is the contract every fast JSON path in
// the repository rests on: for any finite coordinate AppendJSON (and so
// MarshalJSON) is byte-for-byte what encoding/json produces, and for a
// non-finite one both refuse.
func TestAppendJSONMatchesStdlib(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
		5e-324, -5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64, math.MaxFloat64,
		123456789.125, 1.0000000000000002, 299.99999999999994,
	}
	var cases []Coordinate
	for _, a := range edges {
		cases = append(cases, Coordinate{Vec: []float64{a, -a, a}}, Coordinate{Vec: []float64{1}, Height: a})
	}
	cases = append(cases, Coordinate{}, Coordinate{Vec: []float64{}}, Coordinate{Height: 2.5}, New(1, 2, 3, 4, 5))
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		// Random bit patterns reach every exponent, subnormals included.
		c := Coordinate{Vec: make([]float64, 1+rng.IntN(4))}
		for d := range c.Vec {
			c.Vec[d] = math.Float64frombits(rng.Uint64())
		}
		if rng.IntN(2) == 0 {
			c.Height = rng.Float64() * 5
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		want, wantErr := stdlibJSON(c)
		got, ok := c.AppendJSON([]byte("prefix"))
		if ok != (wantErr == nil) {
			t.Fatalf("%v: AppendJSON ok=%v, stdlib err=%v", c, ok, wantErr)
		}
		marshalled, err := json.Marshal(c)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%v: Marshal err=%v, stdlib err=%v", c, err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON diverges from stdlib:\n got %s\nwant prefix%s", got, want)
		}
		if !bytes.Equal(marshalled, want) {
			t.Fatalf("MarshalJSON diverges from stdlib:\n got %s\nwant %s", marshalled, want)
		}
	}
}

// TestAppendJSONStringDeclinesEscapes: whatever the string fast path
// renders is what the stdlib renders, and it declines every string the
// stdlib would escape (it may decline more: non-ASCII goes to the
// stdlib too).
func TestAppendJSONStringDeclinesEscapes(t *testing.T) {
	for _, s := range []string{"", "node-0001", "a b~", `q"`, `b\`, "<", ">", "&", "ü", "\u2028", "\x7f", "\n", "\x00", " "} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendJSONString(nil, s)
		if escaped := string(want) != `"`+s+`"`; escaped && ok {
			t.Fatalf("%q: fast path rendered a string the stdlib escapes as %s", s, want)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	}
	if _, ok := AppendJSONString(nil, "node-0001"); !ok {
		t.Fatal("fast path declined a plain ASCII id")
	}
}

// TestJSONCellServesOnlyItsPoint: a cell renders what the appenders
// render, keeps the rendering for the point it was made from — same id
// bytes, same vector array, same height — and renders afresh, replacing
// it, for any other: an equal id or vector in other memory, the same
// array at another height, or a part of the array. A nil cell, an empty
// id and an empty vector only render, and a declined id or number
// declines.
func TestJSONCellServesOnlyItsPoint(t *testing.T) {
	render := func(m *JSONCell, id string, c Coordinate) []byte {
		t.Helper()
		got, ok := m.AppendResultPrefix([]byte("prefix:"), id, c)
		want, wok := AppendJSONString([]byte(`prefix:{"id":`), id)
		if wok {
			want, wok = c.AppendJSON(append(want, `,"coord":`...))
		}
		if ok != wok || !bytes.Equal(got, want) {
			t.Fatalf("%q %v: cell rendered %q (%v), the appenders %q (%v)", id, c, got, ok, want, wok)
		}
		return got
	}
	var m JSONCell
	id := string([]byte("node-1"))
	c := Coordinate{Vec: []float64{1.5, 2, 3}, Height: 0.25}
	render(&m, id, c)
	first := m.rec.Load()
	if first == nil || !first.of(id, c) {
		t.Fatal("the first rendering was not kept")
	}
	render(&m, id, c)
	if m.rec.Load() != first {
		t.Fatal("the same point was rendered again")
	}
	for _, other := range []struct {
		id string
		c  Coordinate
	}{
		{id, Coordinate{Vec: []float64{1.5, 2, 3}, Height: 0.25}},
		{string([]byte("node-1")), c},
		{"node-2", c},
		{id, Coordinate{Vec: c.Vec, Height: 0.5}},
		{id, Coordinate{Vec: c.Vec[:2], Height: 0.25}},
		{id, Coordinate{Vec: c.Vec[1:], Height: 0.25}},
	} {
		before := m.rec.Load()
		render(&m, other.id, other.c)
		if after := m.rec.Load(); after == before || !after.of(other.id, other.c) {
			t.Fatalf("%q %v: served the rendering of another point", other.id, other.c)
		}
	}
	before := m.rec.Load()
	render(&m, id, Coordinate{Vec: []float64{}})
	render(&m, "", c)
	render(nil, id, c)
	render(&m, "a<b", c)
	render(&m, id, Coordinate{Vec: []float64{math.NaN()}})
	if m.rec.Load() != before {
		t.Fatal("a rendering that must not be kept was kept")
	}
}
