package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"netcoord"
	"netcoord/internal/wire"
)

// Changes endpoint bounds.
const (
	defaultChangesLimit = 512
	maxChangesLimit     = 4096
	maxChangesWait      = time.Minute
)

// handleChanges tails the change stream: everything after ?since=,
// waiting up to ?wait= when the stream is quiet. History is the
// registry's ring, at every tier and for every registry flavour: below
// it, 410 tells the client to re-bootstrap from /snapshot?since= (on a
// follower, sequences — like the events themselves — are the leader's,
// so a client can move between tiers freely).
//
// One wait loop serves both encodings. The first answer goes out when
// there are events or when the window closes with none. A JSON body is
// that one answer. A frames body with a window is a stream: after the
// first batch, every newly published range goes out on the same
// response as a further batch, flushed at once, until the window closes,
// the client leaves or shutdown begins — so a replica pays one HTTP
// round trip per window, not per batch. An error once the status is
// sent (history truncated under the stream, a failed write) ends the
// body at a batch boundary; the client's next request hears it as a
// status. Without a window a frames body is one batch.
func (s *Server) handleChanges(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	since, err := strconv.ParseUint(q.Get("since"), 10, 64)
	if q.Get("since") == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing since parameter (use seq from /snapshot, /stats, or a mutation response; 0 = from the beginning)"))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
		return
	}
	limit := defaultChangesLimit
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 1 || limit > maxChangesLimit {
			writeError(w, http.StatusBadRequest, fmt.Errorf("limit must be an integer in [1, %d]", maxChangesLimit))
			return
		}
	}
	var wait time.Duration
	if raw := q.Get("wait"); raw != "" {
		wait, err = time.ParseDuration(raw)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait: %v", raw))
			return
		}
		if wait > maxChangesWait {
			wait = maxChangesWait
		}
	}
	frames := wantsFrames(req)
	deadline := time.Now().Add(wait)
	var buf []byte // one batch's bytes, reused by the next
	for sent := false; ; {
		evs, err := s.reg.ChangesSince(since, limit)
		if err != nil {
			if sent {
				return
			}
			if errors.Is(err, netcoord.ErrChangeHistoryTruncated) {
				writeError(w, http.StatusGone, fmt.Errorf("%v; %v", err, errGone))
			} else {
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		// Park while there is nothing to send and the window is open.
		// Answer when that changes — including when the client went away
		// or shutdown began: an empty answer keeps poll loops simple. An
		// open stream has answered already and just ends.
		if len(evs) == 0 && wait > 0 && time.Now().Before(deadline) && s.waitForChange(req, since, deadline) {
			continue
		}
		if len(evs) == 0 && sent {
			return
		}
		if !frames {
			if evs == nil {
				evs = []netcoord.ChangeEvent{} // "events":[] — never null
			}
			// epoch is the body-level fencing signal: a client polling a
			// deposed leader detects the stale epoch here (as followers do
			// in the frame batch header) even when the batch is empty.
			writeJSON(w, http.StatusOK, map[string]any{"seq": s.reg.ChangeSeq(), "epoch": s.reg.ChangeEpoch(), "events": evs})
			return
		}
		if buf, err = s.writeFrameBatch(w, buf, evs, sent); err != nil || len(evs) == 0 || wait <= 0 {
			return
		}
		sent = true
		since = evs[len(evs)-1].Seq
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
	}
}

// wantsFrames reports whether the client asked for the binary frame
// encoding of /changes — what every replica does: an Accept header
// naming the frames media type, or ?format=frames for clients that
// cannot set headers. Anything else gets the JSON rendering.
func wantsFrames(req *http.Request) bool {
	return strings.Contains(req.Header.Get("Accept"), wire.ContentTypeFrames) ||
		req.URL.Query().Get("format") == "frames"
}

// writeFrameBatch writes one /changes batch in the binary encoding,
// built in buf: a batch header carrying the seq/epoch fencing pair,
// then one frame per event. Every event a registry hands out carries
// its frame — encoded at the leader's publish, or received from
// upstream by a relay — so this concatenates bytes and the body for a
// seq range is the same at every tier. The first batch of a response
// (sent false) writes the status; a later one appends to the open body.
// It returns buf for reuse, and an error when the batch did not go out.
func (s *Server) writeFrameBatch(w http.ResponseWriter, buf []byte, evs []netcoord.ChangeEvent, sent bool) ([]byte, error) {
	hdr := wire.BatchHeader{Seq: s.reg.ChangeSeq(), Epoch: s.reg.ChangeEpoch(), Count: uint64(len(evs))}
	buf = wire.AppendBatchHeader(slices.Grow(buf[:0], 64+96*len(evs)), hdr)
	var err error
	for i := range evs {
		if buf, err = evs[i].AppendFrameTo(buf); err != nil {
			// Only an event the frame cannot carry (an id or dimension past
			// the wire's bounds); fail loudly rather than send a truncated
			// batch the client would decode as damage.
			if !sent {
				writeError(w, http.StatusInternalServerError, err)
			}
			return buf, err
		}
	}
	if !sent {
		w.Header().Set("Content-Type", wire.ContentTypeFrames)
		w.WriteHeader(http.StatusOK)
	}
	if _, err = w.Write(buf); err != nil {
		return buf, err
	}
	s.framesServed.Add(uint64(len(evs)))
	return buf, nil
}

// waitForChange parks on the hub's broadcast until the stream moves
// past since, the client disconnects, shutdown begins, or the deadline
// passes. It reports whether a new event may be available. Wakeups can
// be spurious (any event broadcasts, including ones at or below since
// on a relay); the caller re-reads and re-parks, which is cheap now
// that parking attaches nothing.
func (s *Server) waitForChange(req *http.Request, since uint64, deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		ch := s.hub.Changed()
		// Re-check after grabbing the channel: an event published
		// between the caller's empty read and this park broadcast on a
		// channel nobody held — the seq check is what can't miss it.
		if s.reg.ChangeSeq() > since {
			return true
		}
		select {
		case <-ch:
			if s.reg.ChangeSeq() > since {
				return true
			}
		case <-timer.C:
			return false
		case <-req.Context().Done():
			return false
		case <-s.shutdown:
			return false
		}
	}
}
