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

// The bodies that carry coordinates — POST /nearest's one query, POST
// /nearest/batch's {"queries":[...]}, and POST /upsert's entries — are
// parsed here instead of by encoding/json. At 32 coordinates a batch
// made the stdlib's reflection a quarter of a query's CPU and nine of
// its every ten allocations, and loading 100k entries through /upsert
// spent more than half its CPU in it, a third in the Unmarshal that
// Coordinate.UnmarshalJSON runs again for every coordinate. The parse
// goes into pooled storage: the body bytes, the queries, the entries,
// and one scratch float array.
//
// Ownership differs by endpoint. A query's coordinates and radii are
// carved from the pooled floats and never outlive the handler. An
// upsert's are not: the registry keeps the coordinate and the id it is
// given, so every vector is copied out into an allocation of its own
// and every id is a fresh string — one of each per entry, as
// encoding/json made.
//
// The parser is the mirror of the append encoder in results.go: it
// accepts a strict subset of JSON and declines everything else, and a
// declined body goes, byte for byte, through the same encoding/json
// decode every other handler uses — so status and error text never
// depend on which path answered. It accepts exact lower-case keys, each
// at most once, with coord and vec present (in every query, every
// upsert entry, and a single upsert that names an id); ids of printable
// ASCII with no escapes; numbers in the JSON number grammar, parsed by
// strconv.ParseFloat like the stdlib does, with k an integer; and JSON
// whitespace anywhere. It declines keys that only match
// case-insensitively, duplicates, escaped keys, unknown keys, an escape
// or a byte outside printable ASCII in an id, null, a missing coord or
// vec, a fractional or exponent k, a number out of range, and anything
// after the value.

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

// bodyKind names the endpoint whose body a request is decoded as.
type bodyKind uint8

const (
	kindNearest bodyKind = iota // POST /nearest: one query
	kindBatch                   // POST /nearest/batch: {"queries":[...]}
	kindUpsert                  // POST /upsert: one entry, a batch, or both
)

// queryRequest is a pooled, parsed request body: a query body's
// queries, or an upsert body's entries. A query's coordinates and radii
// point into floats, so nothing read from them may outlive the handler
// that released it; an entry's id and vector are its own.
type queryRequest struct {
	body    []byte
	queries []nearestBatchQuery
	entries []netcoord.RegistryEntry
	floats  []float64
	// batch and truncated are the batch handler's scratch.
	batch     []netcoord.NearestQuery
	truncated []bool
}

var queryRequests = sync.Pool{New: func() any { return new(queryRequest) }}

// maxPooledQuery bounds the body a pooled request keeps (and, through
// it, the floats, queries and entries parsed from one): a rare large
// batch is dropped instead of pinned.
const maxPooledQuery = 64 << 10

func (qr *queryRequest) release() {
	if cap(qr.body) <= maxPooledQuery && cap(qr.floats) <= maxPooledQuery/2 && cap(qr.queries) <= maxBatchQueries && cap(qr.entries) <= maxPooledQuery/64 {
		// The ids and vectors are the registry's now: the pool must not
		// keep them alive after the registry lets them go.
		clear(qr.entries[:cap(qr.entries)])
		queryRequests.Put(qr)
	}
}

// decodeBody reads the request's body, as the endpoint kind names, into
// a pooled request, or answers 400 and returns nil. The caller releases
// what it gets.
func (s *Server) decodeBody(w http.ResponseWriter, req *http.Request, kind bodyKind) *queryRequest {
	qr := queryRequests.Get().(*queryRequest)
	body := http.MaxBytesReader(w, req.Body, s.maxBody)
	var err error
	qr.body, err = readAll(qr.body[:0], body)
	if err == nil && qr.parse(kind) {
		return qr
	}
	// Declined: the same bytes, then whatever the reader reports after
	// them, through encoding/json.
	if qr.decodeStdlib(w, io.MultiReader(bytes.NewReader(qr.body), body), kind) {
		return qr
	}
	qr.release()
	return nil
}

// decodeStdlib fills qr.queries or qr.entries from r through
// encoding/json, the way every body was decoded before the parser, or
// answers 400.
func (qr *queryRequest) decodeStdlib(w http.ResponseWriter, r io.Reader, kind bodyKind) bool {
	switch kind {
	case kindBatch:
		var v struct {
			Queries []nearestBatchQuery `json:"queries"`
		}
		if !decodeJSON(w, r, &v) {
			return false
		}
		qr.queries = v.Queries
	case kindUpsert:
		var v upsertRequest
		if !decodeJSON(w, r, &v) {
			return false
		}
		qr.entries = v.fold(qr.entries[:0])
	default:
		var v nearestBody
		if !decodeJSON(w, r, &v) {
			return false
		}
		qr.queries = append(qr.queries[:0], nearestBatchQuery(v))
	}
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

// parse fills qr.queries or qr.entries from qr.body, or reports false
// when the body is not in the subset the parser accepts.
func (qr *queryRequest) parse(kind bodyKind) bool {
	p := queryParser{b: qr.body, queries: qr.queries[:0], entries: qr.entries[:0], floats: qr.floats[:0]}
	var ok bool
	switch kind {
	case kindBatch:
		ok = p.batch()
	case kindUpsert:
		ok = p.upsert()
	default:
		ok = p.query()
	}
	// Keep the grown storage even when declining.
	qr.queries, qr.entries, qr.floats = p.queries, p.entries, p.floats
	p.space()
	return ok && p.i == len(p.b)
}

// queryParser reads the request bodies' subset of JSON from b,
// appending the queries or entries it completes and the floats a
// query's coordinates are carved from.
type queryParser struct {
	b       []byte
	i       int
	queries []nearestBatchQuery
	entries []netcoord.RegistryEntry
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

// upsert reads {"id":…,"coord":…,"error":…,"entries":[entry,…]}, every
// key optional, and lists the entries in the order handleUpsert applies
// them: the single form first when it names an id, then the batch.
func (p *queryParser) upsert() bool {
	var single netcoord.RegistryEntry
	var seen uint8
	batch := false
	ok := p.object(func(key []byte) bool {
		if string(key) == "entries" && !batch {
			batch = true
			return p.array(p.entry)
		}
		return p.member(&single, &seen, key)
	})
	if !ok {
		return false
	}
	if single.ID != "" {
		if seen&2 == 0 {
			return false // no coord: a nil vector, for encoding/json to report
		}
		p.entries = slices.Insert(p.entries, 0, single)
	}
	return true
}

// entry reads one {"id":…,"coord":…,"error":…} of an upsert's batch,
// coord required, and appends it to p.entries.
func (p *queryParser) entry() bool {
	var e netcoord.RegistryEntry
	var seen uint8
	if !p.object(func(key []byte) bool { return p.member(&e, &seen, key) }) || seen&2 == 0 {
		return false
	}
	p.entries = append(p.entries, e)
	return true
}

// member reads the value of an upsert entry's key — id, coord or error,
// each at most once, recorded in seen — into e.
func (p *queryParser) member(e *netcoord.RegistryEntry, seen *uint8, key []byte) bool {
	var ok bool
	switch {
	case string(key) == "id" && *seen&1 == 0:
		*seen |= 1
		e.ID, ok = p.string()
	case string(key) == "coord" && *seen&2 == 0:
		*seen |= 2
		ok = p.ownedCoord(&e.Coord)
	case string(key) == "error" && *seen&4 == 0:
		*seen |= 4
		e.Error, ok = p.float()
	}
	return ok
}

// ownedCoord reads a coordinate like coord, then moves its vector out of
// the pooled floats into an allocation of its own, as encoding/json
// would have made: the registry keeps the coordinate it is given.
func (p *queryParser) ownedCoord(c *netcoord.Coordinate) bool {
	start := len(p.floats)
	if !p.coord(c) {
		return false
	}
	v := make([]float64, len(c.Vec)) // "vec":[] stays empty, not nil
	copy(v, c.Vec)
	c.Vec = v
	p.floats = p.floats[:start]
	return true
}

// string reads a string of printable ASCII with no escapes — the bytes
// are the value — into a fresh allocation. Anything else is declined:
// the stdlib would unescape it, or replace invalid UTF-8.
func (p *queryParser) string() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	for i := p.i; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := string(p.b[p.i:i])
			p.i = i + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
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
