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

func (s *Server) handleUpsert(w http.ResponseWriter, req *http.Request) {
	var body upsertRequest
	if !s.decode(w, req, &body) {
		return
	}
	// Fold the single-entry form into the batch so the whole request is
	// one atomic UpsertBatch: a 400 always means nothing was applied.
	batch := make([]netcoord.RegistryEntry, 0, len(body.Entries)+1)
	if body.ID != "" {
		batch = append(batch, netcoord.RegistryEntry{ID: body.ID, Coord: body.Coord, Error: body.Error})
	}
	for _, e := range body.Entries {
		batch = append(batch, netcoord.RegistryEntry{ID: e.ID, Coord: e.Coord, Error: e.Error})
	}
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
	resp := map[string]any{"applied": len(batch), "entries": s.reg.Len(), "seq": s.source.ChangeSeq(), "epoch": s.source.ChangeEpoch()}
	s.flagDegraded(resp)
	writeJSON(w, http.StatusOK, resp)
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
	resp := map[string]any{"removed": s.reg.Remove(body.ID), "seq": s.source.ChangeSeq(), "epoch": s.source.ChangeEpoch()}
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
			"seq":      s.source.ChangeSeq(),
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
			"seq":      s.source.ChangeSeq(),
		})
	default:
		writeError(w, http.StatusConflict, errors.New("already the leader (in-memory registry; nothing to promote)"))
	}
}

// handleNearestGet answers proximity queries centered on a registered
// node: /nearest?id=n1&k=8, or radius mode with &radius_ms=50. Radius
// mode goes through Registry.WithinLimit — the untrusted-radius entry
// point, which caps the result set before ranking — so a huge or
// adversarial radius_ms costs O(maxK log maxK), not O(n log n).
func (s *Server) handleNearestGet(w http.ResponseWriter, req *http.Request) {
	id := req.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing id parameter (POST a coordinate for coordinate-centered queries)"))
		return
	}
	if radiusStr := req.URL.Query().Get("radius_ms"); radiusStr != "" {
		radius, err := strconv.ParseFloat(radiusStr, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad radius_ms: %w", err))
			return
		}
		entry, ok := s.reg.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown id %q", id))
			return
		}
		// Bounded like k-mode: +1 slack for the excluded center, +1 to
		// detect truncation.
		res, err := s.reg.WithinLimit(entry.Coord, radius, maxK+2)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Consistent with k-mode: the center node is not its own peer.
		filtered := res[:0]
		for _, rk := range res {
			if rk.ID != id {
				filtered = append(filtered, rk)
			}
		}
		truncated := len(filtered) > maxK
		if truncated {
			filtered = filtered[:maxK]
		}
		writeResults(w, filtered, &truncated)
		return
	}
	k, ok := parseK(w, req.URL.Query().Get("k"))
	if !ok {
		return
	}
	res, err := s.reg.NearestTo(id, k)
	if errors.Is(err, netcoord.ErrUnknownID) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeResults(w, res, nil)
}

// handleNearestPost answers proximity queries centered on an arbitrary
// coordinate — the "nearest replicas to this client" call for clients
// that are not registered themselves. Like the GET handler, radius mode
// uses Registry.WithinLimit (the untrusted-radius entry point) so a
// client-supplied radius can never rank more than maxK+1 results.
func (s *Server) handleNearestPost(w http.ResponseWriter, req *http.Request) {
	if qr := s.decodeQueries(w, req, false); qr != nil {
		s.answerNearest(w, &qr.queries[0])
		qr.release()
	}
}

// answerNearest answers one decoded POST /nearest body.
func (s *Server) answerNearest(w http.ResponseWriter, body *nearestBatchQuery) {
	if body.RadiusMS != nil {
		res, err := s.reg.WithinLimit(body.Coord, *body.RadiusMS, maxK+1)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		truncated := len(res) > maxK
		if truncated {
			res = res[:maxK]
		}
		writeResults(w, res, &truncated)
		return
	}
	k := body.K
	if k == 0 {
		k = defaultK
	}
	if k < 1 || k > maxK {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be an integer in [1, %d]", maxK))
		return
	}
	res, err := s.reg.Nearest(body.Coord, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeResults(w, res, nil)
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
	if qr := s.decodeQueries(w, req, true); qr != nil {
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
	for i, q := range qr.queries {
		if q.RadiusMS != nil {
			// Same shape as POST /nearest radius mode: WithinLimit-style
			// bounding with +1 slack to detect truncation. Registry-side
			// validation rejects negative/NaN radii for the whole batch.
			queries = append(queries, netcoord.NearestQuery{From: q.Coord, K: maxK + 1, HasRadius: true, RadiusMillis: *q.RadiusMS})
			continue
		}
		k := q.K
		if k == 0 {
			k = defaultK
		}
		if k < 1 || k > maxK {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: k must be an integer in [1, %d]", i, maxK))
			return
		}
		queries = append(queries, netcoord.NearestQuery{From: q.Coord, K: k})
	}
	qr.batch = queries
	results, err := s.reg.NearestBatch(queries)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	truncated := qr.truncated[:0]
	for i, res := range results {
		tr := queries[i].HasRadius && len(res) > maxK
		if tr {
			results[i] = res[:maxK]
		}
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
		"change_stream":  s.source.ChangeStreamStats(),
		"seq":            s.source.ChangeSeq(),
		"epoch":          s.source.ChangeEpoch(),
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
