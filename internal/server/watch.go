package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"netcoord"
)

// watchHeartbeat is the SSE keepalive cadence.
const watchHeartbeat = 15 * time.Second

// watchSyncLimit bounds how many times one wakeup re-runs the query
// because events raced the interest install; past it the handler ships
// what it has and leaves a self-damage pending, so liveness never
// depends on out-running a write storm.
const watchSyncLimit = 4

// watchDelta is one /watch SSE payload: the full current top-k plus
// the membership delta against the previous payload.
type watchDelta struct {
	Seq     uint64       `json:"seq"`
	Results []rankedJSON `json:"results"`
	Added   []string     `json:"added,omitempty"`
	Removed []string     `json:"removed,omitempty"`
}

// handleWatch streams nearest-set changes for one watched coordinate
// as server-sent events: an initial "snapshot" with the current top-k,
// then a "delta" only when the top-k membership or order actually
// changes. The watcher registers its interest with the server's shared
// WatchHub — one change-stream cursor and a spatial damage map
// for all watchers — and recomputes only when the hub wakes it, so
// events that cannot affect this top-k (the vastly common case with
// stable application-level coordinates) cost it nothing at all.
//
// id-mode (?id=n1) matches /nearest?id=n1 semantics: the node is not
// its own neighbor, and its coordinate is re-resolved on every
// recompute, so the watch follows the node when it moves. The stream
// ends if the watched node is removed.
//
// On a follower the hub reads the leader's relayed stream, so the
// sequence numbers in these events are the leader's — a watcher moved
// between tiers sees one sequence space.
func (s *Server) handleWatch(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	k, ok := parseK(w, q.Get("k"))
	if !ok {
		return
	}
	watchID := q.Get("id")
	var fixed netcoord.Coordinate
	switch {
	case watchID != "":
		if _, found := s.reg.Get(watchID); !found {
			writeUnknownID(w, watchID)
			return
		}
	case q.Get("vec") != "":
		var err error
		fixed, err = parseVec(q.Get("vec"), q.Get("height"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, errors.New("missing id or vec parameter (vec=x,y,z&height=h watches an arbitrary coordinate)"))
		return
	}
	// parseK range-checked k, which is all nearestQuery can refuse.
	query, _ := nearestQuery(&nearestBatchQuery{Coord: fixed, K: k}, watchID)
	// recompute answers "top-k now" plus the origin it was measured
	// from (id-mode re-resolves the node's current coordinate, so a
	// moving watched node keeps the question honest).
	recompute := func() ([]netcoord.Ranked, netcoord.Coordinate, error) {
		if watchID != "" {
			entry, found := s.reg.Get(watchID)
			if !found {
				return nil, netcoord.Coordinate{}, fmt.Errorf("watched id %q removed", watchID)
			}
			query.From = entry.Coord
		}
		res, err := s.reg.Query(query, nil)
		return res, query.From, err
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
		return
	}
	// Register with the hub before the initial query: every mutation
	// routed after this point either lands in the query's read or
	// damages the (still promiscuous) watcher — no unwatched window.
	watcher := s.hub.Watch(watchID)
	defer s.hub.Detach(watcher)
	// The stream keeps its current answer as the JSON rows it sends,
	// not as Ranked: a Ranked holds its memo cell, and with it the index
	// arena the answer came from, alive for as long as the watch lasts.
	res, seq, err := s.syncWatch(watcher, recompute, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cur := toRankedJSON(res)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	sse := newSSEWriter(w)
	if sse.write("snapshot", watchDelta{Seq: seq, Results: cur}) != nil {
		return
	}
	fl.Flush()

	hb := time.NewTicker(watchHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case <-s.shutdown:
			return
		case <-hb.C:
			// Comment frames keep idle connections alive through proxies
			// and let dead clients surface as write errors.
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-watcher.C():
			res, seq, err := s.syncWatch(watcher, recompute, k)
			if err != nil {
				return // watched node removed (or registry torn down)
			}
			next := toRankedJSON(res)
			added, removed, changed := diffRanked(cur, next)
			cur = next
			if !changed {
				continue
			}
			if sse.write("delta", watchDelta{Seq: seq, Results: cur, Added: added, Removed: removed}) != nil {
				return
			}
			fl.Flush()
		}
	}
}

// syncWatch runs the watcher's query and installs the result as its
// hub interest, repeating until no event raced the install (the hub's
// stream position stood still between the pre-query read and the
// install). The returned sequence is that stream position: the result
// provably reflects everything the hub routed through it.
func (s *Server) syncWatch(watcher *HubWatcher, recompute func() ([]netcoord.Ranked, netcoord.Coordinate, error), k int) ([]netcoord.Ranked, uint64, error) {
	start := time.Now()
	// The pending publish stamp belongs to damage this recompute is
	// about to absorb; take it up front so damage that lands DURING the
	// loop (and wakes us again) starts a fresh lag measurement instead
	// of being double-counted by this delivery.
	pending := watcher.pendingPubNs.Swap(0)
	for tries := 0; ; tries++ {
		pre := s.hub.Processed()
		res, origin, err := recompute()
		if err != nil {
			return nil, 0, err
		}
		post := s.hub.SetInterest(watcher, origin, res, k)
		if post == pre || tries >= watchSyncLimit {
			if post != pre {
				// Events raced every attempt; ship this result and make
				// sure the pending damage wakes us again.
				s.hub.damage(watcher)
			}
			s.hub.observeRecompute(time.Since(start))
			if pending > 0 {
				s.hub.deliverLag.Observe(time.Now().UnixNano() - pending)
			}
			return res, post, nil
		}
	}
}

// diffRanked compares two ranked lists by id sequence. added/removed
// report membership changes; changed is also true for pure reorders.
func diffRanked(old, next []rankedJSON) (added, removed []string, changed bool) {
	if len(old) == len(next) {
		same := true
		for i := range old {
			if old[i].ID != next[i].ID {
				same = false
				break
			}
		}
		if same {
			return nil, nil, false
		}
	}
	oldSet := make(map[string]struct{}, len(old))
	for _, r := range old {
		oldSet[r.ID] = struct{}{}
	}
	nextSet := make(map[string]struct{}, len(next))
	for _, r := range next {
		nextSet[r.ID] = struct{}{}
		if _, ok := oldSet[r.ID]; !ok {
			added = append(added, r.ID)
		}
	}
	for _, r := range old {
		if _, ok := nextSet[r.ID]; !ok {
			removed = append(removed, r.ID)
		}
	}
	return added, removed, true
}

// sseWriter frames server-sent events through one reused buffer: a
// watch connection emits a delta per damaging event for its lifetime,
// and the old per-frame Marshal+Fprintf path paid a fresh buffer (and a
// reflection walk of the format string) for every one of them. The
// encoder is bound to the buffer once; each frame reuses both.
type sseWriter struct {
	dst io.Writer
	buf bytes.Buffer
	enc *json.Encoder
}

func newSSEWriter(dst io.Writer) *sseWriter {
	sw := &sseWriter{dst: dst}
	sw.enc = json.NewEncoder(&sw.buf)
	return sw
}

// write frames one event. The JSON encoder emits a trailing newline,
// which serves as the first of the two newlines the SSE framing needs
// (JSON string escaping guarantees no other newline appears mid-frame).
func (sw *sseWriter) write(event string, v any) error {
	sw.buf.Reset()
	sw.buf.WriteString("event: ")
	sw.buf.WriteString(event)
	sw.buf.WriteString("\ndata: ")
	if err := sw.enc.Encode(v); err != nil {
		return err
	}
	sw.buf.WriteByte('\n')
	_, err := sw.dst.Write(sw.buf.Bytes())
	return err
}
