package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"netcoord"
)

// upsertRequest accepts a single entry, a batch, or both.
type upsertRequest struct {
	ID      string              `json:"id"`
	Coord   netcoord.Coordinate `json:"coord"`
	Error   float64             `json:"error"`
	Entries []upsertEntry       `json:"entries"`
}

type upsertEntry struct {
	ID    string              `json:"id"`
	Coord netcoord.Coordinate `json:"coord"`
	Error float64             `json:"error"`
}

// fold appends the request's entries to dst in the order they are
// applied: the single form first when it names an id, then the batch.
func (u *upsertRequest) fold(dst []netcoord.RegistryEntry) []netcoord.RegistryEntry {
	if u.ID != "" {
		dst = append(dst, netcoord.RegistryEntry{ID: u.ID, Coord: u.Coord, Error: u.Error})
	}
	for _, e := range u.Entries {
		dst = append(dst, netcoord.RegistryEntry{ID: e.ID, Coord: e.Coord, Error: e.Error})
	}
	return dst
}

type rankedJSON struct {
	ID           string              `json:"id"`
	Coord        netcoord.Coordinate `json:"coord"`
	EstimatedRTT float64             `json:"estimated_rtt_ms"`
}

func toRankedJSON(rs []netcoord.Ranked) []rankedJSON {
	out := make([]rankedJSON, len(rs))
	for i, r := range rs {
		out[i] = rankedJSON{ID: r.ID, Coord: r.Coord, EstimatedRTT: r.EstimatedRTT}
	}
	return out
}

// handleUpsert registers coordinates: {"id":…,"coord":…,"error":…} for
// one node, {"entries":[…]} for many, or both. The body is read by the
// parser in querybody.go — declining to encoding/json outside its
// subset — into entries whose ids and vectors are their own, since the
// registry keeps them. The single form is folded into the batch, first,
// so the whole request is one atomic UpsertBatch: a 400 always means
// nothing was applied. The ack is append-encoded, byte for byte what
// encoding/json renders for it.
func (s *Server) handleUpsert(w http.ResponseWriter, req *http.Request) {
	if qr := s.decodeBody(w, req, kindUpsert); qr != nil {
		s.applyUpsert(w, qr.entries)
		qr.release()
	}
}

// applyUpsert applies one decoded POST /upsert body and acks it.
func (s *Server) applyUpsert(w http.ResponseWriter, batch []netcoord.RegistryEntry) {
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no id or entries in request"))
		return
	}
	if err := s.reg.UpsertBatch(batch); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// seq is read after the batch applied, so it covers these upserts:
	// a writer can hand it straight to /changes?since= and observe every
	// subsequent mutation with no read-then-subscribe race. epoch lets
	// the writer prove it talked to the fenced-in leader, not a deposed
	// one still answering.
	entries, seq, epoch := s.reg.Len(), s.reg.ChangeSeq(), s.reg.ChangeEpoch()
	var degraded error
	if s.persist != nil {
		degraded = s.persist.Err()
	}
	writeUpsertAck(w, len(batch), entries, seq, epoch, degraded)
}

// writeUpsertAck answers 200 {"applied":…,"entries":…,"epoch":…,
// "seq":…}: encoding/json's rendering of the map, keys sorted. An ack
// flagging degraded persistence, which carries the error's text, is
// rendered by encoding/json itself.
func writeUpsertAck(w http.ResponseWriter, applied, entries int, seq, epoch uint64, degraded error) {
	if degraded != nil {
		writeJSON(w, http.StatusOK, map[string]any{"applied": applied, "entries": entries, "seq": seq, "epoch": epoch, "persistence_degraded": degraded.Error()})
		return
	}
	buf := respBufs.Get().(*[]byte)
	body := append((*buf)[:0], `{"applied":`...)
	body = strconv.AppendInt(body, int64(applied), 10)
	body = append(body, `,"entries":`...)
	body = strconv.AppendInt(body, int64(entries), 10)
	body = append(body, `,"epoch":`...)
	body = strconv.AppendUint(body, epoch, 10)
	body = append(body, `,"seq":`...)
	body = strconv.AppendUint(body, seq, 10)
	writeBody(w, buf, append(body, "}\n"...))
}

// flagDegraded marks a mutation response when persistence has failed:
// the mutation was applied in memory but is no longer being logged, so
// writers must not believe the durability contract still holds just
// because they got a 200.
func (s *Server) flagDegraded(resp map[string]any) {
	if s.persist == nil {
		return
	}
	if err := s.persist.Err(); err != nil {
		resp["persistence_degraded"] = err.Error()
	}
}

func (s *Server) handleRemove(w http.ResponseWriter, req *http.Request) {
	var body struct {
		ID string `json:"id"`
	}
	if !s.decode(w, req, &body) {
		return
	}
	if body.ID == "" {
		writeError(w, http.StatusBadRequest, errors.New("no id in request"))
		return
	}
	resp := map[string]any{"removed": s.reg.Remove(body.ID), "seq": s.reg.ChangeSeq(), "epoch": s.reg.ChangeEpoch()}
	s.flagDegraded(resp)
	writeJSON(w, http.StatusOK, resp)
}

// handlePromote turns this process into the stream's leader.
//
// On a follower it stops the tail loop, bumps the fencing epoch, and
// opens the mutation surface — local writes continue the dense sequence
// space under the new epoch, and everything the deposed leader still
// writes is fenced out by every tier that saw the promotion. The caller
// (an operator, or an external failure detector) owns promoting exactly
// one replica. Idempotent: repeating the call re-answers with the
// established epoch.
//
// On a persistent leader it is a defensive fence: the epoch is bumped
// and made durable (WAL rotation), so anything still replaying the old
// epoch — say a partitioned replica of a deposed predecessor — is
// rejected from here on. On a plain in-memory leader there is nothing
// to promote and the call is a 409.
func (s *Server) handlePromote(w http.ResponseWriter, req *http.Request) {
	switch {
	case s.follower != nil:
		epoch, err := s.follower.Promote()
		already := errors.Is(err, netcoord.ErrNotPromotable)
		if err != nil && !already {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"promoted": true,
			"already":  already,
			"epoch":    epoch,
			"seq":      s.reg.ChangeSeq(),
		})
	case s.persist != nil:
		epoch, err := s.persist.Fence()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"promoted": true,
			"fenced":   true,
			"epoch":    epoch,
			"seq":      s.reg.ChangeSeq(),
		})
	default:
		writeError(w, http.StatusConflict, errors.New("already the leader (in-memory registry; nothing to promote)"))
	}
}

// handleNearestGet answers proximity queries centered on a registered
// node, which is not its own neighbor: /nearest?id=n1&k=8, or radius
// mode with &radius_ms=50, where k is ignored. Either is the query POST
// /nearest answers for the node's coordinate, with the node excluded.
func (s *Server) handleNearestGet(w http.ResponseWriter, req *http.Request) {
	params := req.URL.Query()
	id := params.Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing id parameter (POST a coordinate for coordinate-centered queries)"))
		return
	}
	var body nearestBatchQuery
	if raw := params.Get("radius_ms"); raw != "" {
		radius, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad radius_ms: %w", err))
			return
		}
		body.RadiusMS = &radius
	} else {
		var ok bool
		if body.K, ok = parseK(w, params.Get("k")); !ok {
			return
		}
	}
	entry, found := s.reg.Get(id)
	if !found {
		writeUnknownID(w, id)
		return
	}
	body.Coord = entry.Coord
	s.answerQuery(w, &body, id)
}

// handleNearestPost answers proximity queries centered on an arbitrary
// coordinate — the "nearest replicas to this client" call for clients
// that are not registered themselves.
func (s *Server) handleNearestPost(w http.ResponseWriter, req *http.Request) {
	if qr := s.decodeBody(w, req, kindNearest); qr != nil {
		s.answerQuery(w, &qr.queries[0], "")
		qr.release()
	}
}

// answerQuery answers one query, excluding the id exclude: POST
// /nearest's body, or GET /nearest's parameters.
func (s *Server) answerQuery(w http.ResponseWriter, body *nearestBatchQuery, exclude string) {
	q, err := nearestQuery(body, exclude)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.reg.Query(q, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, truncated := truncate(&q, res)
	var flag *bool // a k-mode answer carries no "truncated"
	if q.HasRadius {
		flag = &truncated
	}
	writeResults(w, res, flag)
}

// errBadK answers a k outside [1, maxK].
var errBadK = fmt.Errorf("k must be an integer in [1, %d]", maxK)

// nearestQuery turns one parsed query into the registry query that
// answers it — for POST /nearest, each element of POST /nearest/batch,
// GET /nearest and /watch. k-mode takes defaultK for an absent k and
// must be in [1, maxK]. Radius mode ignores k and asks for maxK+1
// results, one more than truncate keeps, so a longer answer shows that
// the radius held more, and a client-supplied radius never ranks more.
func nearestQuery(body *nearestBatchQuery, exclude string) (netcoord.NearestQuery, error) {
	q := netcoord.NearestQuery{From: body.Coord, K: body.K, Exclude: exclude}
	if body.RadiusMS != nil {
		q.K, q.HasRadius, q.RadiusMillis = maxK+1, true, *body.RadiusMS
		return q, nil
	}
	if q.K == 0 {
		q.K = defaultK
	}
	if q.K < 1 || q.K > maxK {
		return q, errBadK
	}
	return q, nil
}

// truncate is the one truncation rule: a radius query's answer is cut
// to maxK results, and reports whether it was.
func truncate(q *netcoord.NearestQuery, res []netcoord.Ranked) ([]netcoord.Ranked, bool) {
	if q.HasRadius && len(res) > maxK {
		return res[:maxK], true
	}
	return res, false
}

// writeUnknownID answers 404 for an id the registry does not hold, in
// the words of netcoord.ErrUnknownID.
func writeUnknownID(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", netcoord.ErrUnknownID, id))
}

// maxBatchQueries caps how many queries one POST /nearest/batch request
// may carry; combined with maxK it bounds the worst-case work a single
// request can demand.
const maxBatchQueries = 256

// nearestBatchQuery is one element of a POST /nearest/batch request.
// Shapes mirror POST /nearest exactly: k-mode by default, radius mode
// when radius_ms is present.
type nearestBatchQuery struct {
	Coord    netcoord.Coordinate `json:"coord"`
	K        int                 `json:"k"`
	RadiusMS *float64            `json:"radius_ms"`
}

// nearestBatchResult is one element of the response, positionally
// matching the request's queries array.
type nearestBatchResult struct {
	Results   []rankedJSON `json:"results"`
	Truncated bool         `json:"truncated,omitempty"`
}

// handleNearestBatch answers many proximity queries in one request:
// {"queries":[{"coord":...,"k":8},{"coord":...,"radius_ms":50},...]}.
// The whole batch is answered by one Registry.NearestBatch call, so the
// request's HTTP and JSON cost is paid once for all of its queries —
// the cheap way to resolve a client's full replica set or a mesh of
// candidate origins.
// Validation is atomic: any malformed query fails the whole batch with
// a 400 naming the offending index, and nothing is computed.
func (s *Server) handleNearestBatch(w http.ResponseWriter, req *http.Request) {
	if qr := s.decodeBody(w, req, kindBatch); qr != nil {
		s.answerBatch(w, qr)
		qr.release()
	}
}

// answerBatch answers one decoded POST /nearest/batch body.
func (s *Server) answerBatch(w http.ResponseWriter, qr *queryRequest) {
	if len(qr.queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no queries in request"))
		return
	}
	if len(qr.queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d queries, want <= %d per request", len(qr.queries), maxBatchQueries))
		return
	}
	queries := qr.batch[:0]
	for i := range qr.queries {
		q, err := nearestQuery(&qr.queries[i], "")
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries = append(queries, q)
	}
	qr.batch = queries
	results, err := s.reg.NearestBatch(queries)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	truncated := qr.truncated[:0]
	for i := range results {
		var tr bool
		results[i], tr = truncate(&queries[i], results[i])
		truncated = append(truncated, tr)
	}
	qr.truncated = truncated
	writeBatchResults(w, results, truncated)
}

func (s *Server) handleEstimate(w http.ResponseWriter, req *http.Request) {
	a, b := req.URL.Query().Get("a"), req.URL.Query().Get("b")
	if a == "" || b == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing a or b parameter"))
		return
	}
	d, err := s.reg.Estimate(a, b)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"a": a, "b": b, "rtt_ms": d})
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	body := map[string]any{
		"registry":       s.reg.Stats(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"change_stream":  s.reg.ChangeStreamStats(),
		"seq":            s.reg.ChangeSeq(),
		"epoch":          s.reg.ChangeEpoch(),
		"watch_hub":      s.hub.Stats(),
	}
	if s.follower != nil {
		// The replica's position in the leader's sequence space; its
		// change_stream section above describes the replica's feed re-serving
		// that stream.
		body["follower"] = s.follower.FollowerStats()
	}
	if s.persist != nil {
		body["persistence"] = map[string]any{
			"recovery": s.persist.Recovery(),
			"store":    s.persist.PersistStats(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}
