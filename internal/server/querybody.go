package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"netcoord"
)

// The two query bodies — POST /nearest's one query and POST
// /nearest/batch's {"queries":[...]} — are the only request bodies on
// the read path, and at 32 coordinates a batch made encoding/json's
// reflection a quarter of a request's CPU and nine of its every ten
// allocations. They are parsed here instead, into pooled storage: the
// body bytes, the queries, and one float array every coordinate and
// radius is carved from.
//
// The parser is the mirror of the append encoder in results.go: it
// accepts a strict subset of JSON and declines everything else, and a
// declined body goes, byte for byte, through the same encoding/json
// decode every other handler uses — so status and error text never
// depend on which path answered. It accepts exact lower-case keys, each
// at most once, with coord and vec present; numbers in the JSON number
// grammar, parsed by strconv.ParseFloat like the stdlib does, with k an
// integer; and JSON whitespace anywhere. It declines keys that only
// match case-insensitively, duplicates, escaped keys, unknown keys,
// null, a missing coord or vec, a fractional or exponent k, a number out
// of range, and anything after the value.

// errTrailingData is reported for a body that holds more than one JSON
// value.
var errTrailingData = errors.New("unexpected data after the JSON value")

// decodeJSON decodes the one JSON value r holds into into, rejecting
// unknown fields and anything but whitespace after the value; on
// failure it answers 400.
func decodeJSON(w http.ResponseWriter, r io.Reader, into any) bool {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		err = onlySpace(io.MultiReader(dec.Buffered(), r))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// onlySpace reads r to its end: errTrailingData at the first byte that
// is not JSON whitespace, the read error if there is one, else nil.
func onlySpace(r io.Reader) error {
	var buf [512]byte
	for {
		n, err := r.Read(buf[:])
		for _, c := range buf[:n] {
			if !isSpace(c) {
				return errTrailingData
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// nearestBody is POST /nearest's body as encoding/json decodes it. An
// alias of an unnamed struct, so its decode errors name the fields
// exactly as they always have.
type nearestBody = struct {
	Coord    netcoord.Coordinate `json:"coord"`
	K        int                 `json:"k"`
	RadiusMS *float64            `json:"radius_ms"`
}

// queryRequest is a pooled, parsed query body. Its coordinates and
// radii point into floats, so nothing read from it may outlive the
// handler that released it.
type queryRequest struct {
	body    []byte
	queries []nearestBatchQuery
	floats  []float64
	// batch and truncated are the batch handler's scratch.
	batch     []netcoord.NearestQuery
	truncated []bool
}

var queryRequests = sync.Pool{New: func() any { return new(queryRequest) }}

// maxPooledQuery bounds the body a pooled request keeps (and, through
// it, the floats and queries parsed from one): a rare large batch is
// dropped instead of pinned.
const maxPooledQuery = 64 << 10

func (qr *queryRequest) release() {
	if cap(qr.body) <= maxPooledQuery && cap(qr.floats) <= maxPooledQuery/2 && cap(qr.queries) <= maxBatchQueries {
		queryRequests.Put(qr)
	}
}

// decodeQueries reads the request's body — a batch when batch is set,
// else one query — into a pooled request, or answers 400 and returns
// nil. The caller releases what it gets.
func (s *Server) decodeQueries(w http.ResponseWriter, req *http.Request, batch bool) *queryRequest {
	qr := queryRequests.Get().(*queryRequest)
	body := http.MaxBytesReader(w, req.Body, s.maxBody)
	var err error
	qr.body, err = readAll(qr.body[:0], body)
	if err == nil && qr.parse(batch) {
		return qr
	}
	// Declined: the same bytes, then whatever the reader reports after
	// them, through encoding/json.
	if qr.decodeStdlib(w, io.MultiReader(bytes.NewReader(qr.body), body), batch) {
		return qr
	}
	qr.release()
	return nil
}

// decodeStdlib fills qr.queries from r through encoding/json, the way
// every query body was decoded before the parser, or answers 400.
func (qr *queryRequest) decodeStdlib(w http.ResponseWriter, r io.Reader, batch bool) bool {
	if batch {
		var v struct {
			Queries []nearestBatchQuery `json:"queries"`
		}
		if !decodeJSON(w, r, &v) {
			return false
		}
		qr.queries = v.Queries
		return true
	}
	var v nearestBody
	if !decodeJSON(w, r, &v) {
		return false
	}
	qr.queries = append(qr.queries[:0], nearestBatchQuery(v))
	return true
}

// readAll appends everything r holds to dst.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 4096)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// parse fills qr.queries from qr.body, or reports false when the body
// is not in the subset the parser accepts.
func (qr *queryRequest) parse(batch bool) bool {
	p := queryParser{b: qr.body, queries: qr.queries[:0], floats: qr.floats[:0]}
	var ok bool
	if batch {
		ok = p.batch()
	} else {
		ok = p.query()
	}
	// Keep the grown storage even when declining.
	qr.queries, qr.floats = p.queries, p.floats
	p.space()
	return ok && p.i == len(p.b)
}

// queryParser reads the query bodies' subset of JSON from b, appending
// the queries it completes and the floats they are carved from.
type queryParser struct {
	b       []byte
	i       int
	queries []nearestBatchQuery
	floats  []float64
}

func (p *queryParser) space() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

// eat consumes c, after whitespace, if it is next.
func (p *queryParser) eat(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object reads {"key":value,...}, handing each key to member with the
// parser at its value. A key holding an escape is declined: the stdlib
// would unescape it before matching.
func (p *queryParser) object(member func(key []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		if !p.eat('"') {
			return false
		}
		end := bytes.IndexByte(p.b[p.i:], '"')
		if end < 0 {
			return false
		}
		key := p.b[p.i : p.i+end]
		p.i += end + 1
		if bytes.IndexByte(key, '\\') >= 0 || !p.eat(':') || !member(key) {
			return false
		}
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// array reads [elem,...], calling elem with the parser at each element.
func (p *queryParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// batch reads {"queries":[query,...]}.
func (p *queryParser) batch() bool {
	seen := false
	return p.object(func(key []byte) bool {
		if seen || string(key) != "queries" {
			return false
		}
		seen = true
		return p.array(p.query)
	}) && seen
}

// query reads {"coord":{...},"k":n,"radius_ms":r}, k and radius_ms
// optional.
func (p *queryParser) query() bool {
	var q nearestBatchQuery
	var seen uint8
	ok := p.object(func(key []byte) bool {
		switch {
		case string(key) == "coord" && seen&1 == 0:
			seen |= 1
			return p.coord(&q.Coord)
		case string(key) == "k" && seen&2 == 0:
			seen |= 2
			var ok bool
			q.K, ok = p.int()
			return ok
		case string(key) == "radius_ms" && seen&4 == 0:
			seen |= 4
			v, ok := p.float()
			p.floats = append(p.floats, v)
			q.RadiusMS = &p.floats[len(p.floats)-1]
			return ok
		}
		return false
	})
	if !ok || seen&1 == 0 {
		return false
	}
	p.queries = append(p.queries, q)
	return true
}

// coord reads {"vec":[x,...],"height":h}, height optional. The vector
// is carved out of p.floats, capped so an append cannot reach past it;
// if the floats grow later it keeps pointing at the array it was
// written in.
func (p *queryParser) coord(c *netcoord.Coordinate) bool {
	var seen uint8
	return p.object(func(key []byte) bool {
		switch {
		case string(key) == "vec" && seen&1 == 0:
			seen |= 1
			start := len(p.floats)
			if !p.array(p.element) {
				return false
			}
			c.Vec = p.floats[start:len(p.floats):len(p.floats)]
			if c.Vec == nil {
				c.Vec = []float64{} // "vec":[] decodes empty, not nil
			}
			return true
		case string(key) == "height" && seen&2 == 0:
			seen |= 2
			var ok bool
			c.Height, ok = p.float()
			return ok
		}
		return false
	}) && seen&1 != 0
}

// element appends one vector component to p.floats.
func (p *queryParser) element() bool {
	v, ok := p.float()
	p.floats = append(p.floats, v)
	return ok
}

func (p *queryParser) float() (float64, bool) {
	text, _, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(text), 64)
	return v, err == nil
}

func (p *queryParser) int() (int, bool) {
	text, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(text), 10, 0)
	return int(v), err == nil
}

// number reads one number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it has neither fraction nor exponent.
func (p *queryParser) number() (text []byte, integer, ok bool) {
	p.space()
	b, i := p.b, p.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i == len(b) || b[i] < '1' || b[i] > '9' || !digits() {
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	text, p.i = b[p.i:i], i
	return text, integer, true
}
