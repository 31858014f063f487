package coord

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"unsafe"

	"netcoord/internal/vec"
)

// This file is the one JSON encoder for coordinates. AppendJSON writes
// into a caller's buffer with no reflection and no allocation, and
// reproduces encoding/json's output byte for byte; MarshalJSON, the
// change-event codec and the query handlers all render through it.
// Anything the appenders cannot render identically — a string needing
// escapes, a non-finite float — is declined (ok false) so the caller
// falls back to encoding/json itself and the output is ALWAYS exactly
// what the stdlib would have produced.

// coordinateJSON is the stable wire-adjacent JSON representation, and
// the shape AppendJSON reproduces.
type coordinateJSON struct {
	Vec    []float64 `json:"vec"`
	Height float64   `json:"height,omitempty"`
}

// AppendJSON appends c rendered as {"vec":[...],"height":...}, with
// height omitted at zero and a nil vector rendered null. ok is false,
// and the returned slice nil, when a component is not finite.
func (c Coordinate) AppendJSON(dst []byte) (_ []byte, ok bool) {
	dst = append(dst, `{"vec":`...)
	if c.Vec == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i, v := range c.Vec {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = AppendJSONFloat(dst, v); !ok {
				return nil, false
			}
		}
		dst = append(dst, ']')
	}
	if c.Height != 0 {
		dst = append(dst, `,"height":`...)
		if dst, ok = AppendJSONFloat(dst, c.Height); !ok {
			return nil, false
		}
	}
	return append(dst, '}'), true
}

// JSONCell memoizes the opening of one stored point's JSON result
// object, {"id":<id>,"coord":<coordinate> — all of it but the estimated
// RTT, which differs per answer. The index keeps one beside every slot,
// filled by the first answer that renders the slot and copied by every
// later one; it is safe for concurrent use without the index's lock. A
// rendering is served only for the point it was made from — the same
// id bytes, the same vector backing array and the same height, by
// address — so a cell whose slot has since been handed to another point
// renders afresh rather than answer with the old bytes, and since the
// rendering holds the id and the vector, their memory cannot be reused
// while it exists. What it renders must be immutable, as every stored
// id and coordinate is. It holds the id as well as the coordinate
// because an answer would otherwise read each id's bytes, a cache miss
// per result.
type JSONCell struct {
	rec atomic.Pointer[jsonRecord]
}

// jsonRecord is one rendering: the point it was made from, by
// identity, and its bytes — in the record's own array when they fit, as
// a 3-D coordinate's with a short id do, so that checking the record and
// copying its bytes read one allocation.
type jsonRecord struct {
	vec    vec.Vector
	height float64
	id     string
	json   []byte
	inline [136]byte
}

// of reports whether the record renders (id, c): the same id and
// vector, by address and length, and the same height bits.
//
//nc:hotpath
func (r *jsonRecord) of(id string, c Coordinate) bool {
	return len(r.vec) == len(c.Vec) && &r.vec[0] == &c.Vec[0] &&
		len(r.id) == len(id) && unsafe.StringData(r.id) == unsafe.StringData(id) &&
		math.Float64bits(r.height) == math.Float64bits(c.Height)
}

// AppendResultPrefix appends {"id":<id>,"coord":<c>, the id through
// AppendJSONString and c through AppendJSON, copied from the cell when
// it holds that rendering and otherwise rendered and stored there for
// the next answer. ok is false, and the slice nil, when either appender
// declines. A nil cell only renders.
//
//nc:hotpath
func (m *JSONCell) AppendResultPrefix(dst []byte, id string, c Coordinate) (_ []byte, ok bool) {
	if m != nil {
		if r := m.rec.Load(); r != nil && r.of(id, c) {
			return append(dst, r.json...), true
		}
	}
	start := len(dst)
	dst = append(dst, `{"id":`...)
	if dst, ok = AppendJSONString(dst, id); !ok {
		return nil, false
	}
	dst = append(dst, `,"coord":`...)
	if dst, ok = c.AppendJSON(dst); ok && m != nil && len(c.Vec) > 0 && len(id) > 0 {
		//nc:allow(hotpath) memo fill: once per stored point, not per answer
		r := &jsonRecord{vec: c.Vec, height: c.Height, id: id}
		r.json = append(r.inline[:0], dst[start:]...)
		m.rec.Store(r)
	}
	return dst, ok
}

// MarshalJSON implements json.Marshaler.
func (c Coordinate) MarshalJSON() ([]byte, error) {
	if b, ok := c.AppendJSON(make([]byte, 0, 96)); ok {
		return b, nil
	}
	// Non-finite: let the stdlib report it the way it always has.
	return json.Marshal(coordinateJSON{Vec: c.Vec, Height: c.Height})
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Coordinate) UnmarshalJSON(data []byte) error {
	var raw coordinateJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("unmarshal coordinate: %w", err)
	}
	// encoding/json just allocated raw.Vec for this call alone, so the
	// coordinate keeps it rather than copying it. A null or missing vec
	// decodes empty, not nil, as it always has.
	c.Vec = raw.Vec
	if c.Vec == nil {
		c.Vec = vec.Vector{}
	}
	c.Height = raw.Height
	return nil
}

// AppendJSONString quotes s when no byte needs escaping under
// encoding/json's default (HTML-escaping) encoder: printable ASCII
// minus quote, backslash, and the HTML-significant characters. Any
// other byte declines rather than risk diverging from the stdlib's
// rendering.
func AppendJSONString(dst []byte, s string) (_ []byte, ok bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return nil, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendJSONFloat renders f with encoding/json's float algorithm:
// shortest representation, 'f' form inside [1e-6, 1e21), 'e' form with
// a trimmed exponent leading zero outside it. Non-finite values decline
// (the stdlib reports them as errors, and the fallback reproduces that
// exactly).
func AppendJSONFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims a one-digit negative exponent's leading
		// zero: 1e-07 renders as 1e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
