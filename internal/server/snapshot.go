package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"netcoord"
	"netcoord/internal/wire"
)

// handleSnapshot serves the replica-bootstrap pair: the entry set and
// the stream sequence to resume from.
//
// With ?since=<seq> the server first tries a *delta*: live entries
// whose per-entry sequence is newer than since (provable at any depth —
// entries carry the sequence that produced them), plus the removed ids
// from the stream's tombstone ring. Heartbeat upserts are what churn
// the event ring; removals are rare, so the tombstone ring proves
// removal-completeness far below the 410 floor — which is exactly when
// a truncated follower shows up here. When even the tombstone ring
// cannot cover the gap, the response silently degrades to the full
// snapshot; the client distinguishes the two by the "delta" field.
//
// The full body is streamed entry by entry through a small buffer — a
// bootstrap of a multi-million-entry registry must not materialize a
// second (and third) copy of it in one response buffer. On a follower
// the sequence is its applied position in the leader's sequence space
// and the body carries `follower_of` (informational: replicas relay
// the stream, so chaining a replica off a replica is supported).
func (s *Server) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	var followerOf string
	if s.replica() {
		followerOf = s.follower.FollowerStats().LeaderURL
	}
	if raw := req.URL.Query().Get("since"); raw != "" {
		since, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		// The registry assembles the triple in one hold of its read lock
		// (exact, and atomic against a follower's re-bootstrap), or
		// reports ok=false when only a full snapshot can guarantee
		// correctness. The client applies removals before entries, so an
		// id present in both (removed, then re-upserted) ends live,
		// matching its newest state.
		if entries, removed, seq, ok := s.reg.DeltaSince(since); ok {
			if wantsSnapshotFrames(req) {
				s.writeSnapshotFrames(w, seq, followerOf, entries, removed, true)
			} else {
				s.writeSnapshotBody(w, seq, followerOf, entries, removed, true)
			}
			return
		}
	}
	entries, seq := s.reg.SnapshotWithSeq()
	if wantsSnapshotFrames(req) {
		s.writeSnapshotFrames(w, seq, followerOf, entries, nil, false)
		return
	}
	s.writeSnapshotBody(w, seq, followerOf, entries, nil, false)
}

// wantsSnapshotFrames reports whether the client negotiated the binary
// snapshot encoding (Accept naming the snapshot media type, or
// ?format=frames for header-less clients).
func wantsSnapshotFrames(req *http.Request) bool {
	return strings.Contains(req.Header.Get("Accept"), wire.ContentTypeSnapshot) ||
		req.URL.Query().Get("format") == "frames"
}

// writeSnapshotFrames streams the binary form of the bootstrap pair: a
// snapshot header (seq, epoch, delta marker, removed ids, entry count),
// then one upsert frame per entry carrying the entry's own sequence —
// which is where chained delta snapshots read it back from. One
// scratch buffer is reused for every entry, so the
// response allocates per-registry, not per-entry.
func (s *Server) writeSnapshotFrames(w http.ResponseWriter, seq uint64, followerOf string, entries []netcoord.RegistryEntry, removed []string, delta bool) {
	hdr := wire.SnapshotHeader{
		Seq:        seq,
		Epoch:      s.reg.ChangeEpoch(),
		Delta:      delta,
		FollowerOf: followerOf,
		Removed:    removed,
		EntryCount: uint64(len(entries)),
	}
	scratch, err := wire.AppendSnapshotHeader(make([]byte, 0, 4096), &hdr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentTypeSnapshot)
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 1<<16)
	_, _ = bw.Write(scratch)
	for i := range entries {
		scratch, err = wire.AppendEntryFrame(scratch[:0], &entries[i])
		if err != nil {
			return // headers are out; the truncated body fails the client's decode
		}
		_, _ = bw.Write(scratch)
	}
	_ = bw.Flush()
}

// writeSnapshotBody streams a (full or delta) snapshot response entry
// by entry through a small buffer: under heartbeat churn a "delta"
// approaches the whole registry, so it must not materialize
// registry-sized response copies any more than the full path may.
func (s *Server) writeSnapshotBody(w http.ResponseWriter, seq uint64, followerOf string, entries []netcoord.RegistryEntry, removed []string, delta bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 1<<16)
	// The epoch rides the bootstrap pair: a replica refusing to re-base
	// onto a deposed leader's snapshot needs the epoch of the state it
	// is about to adopt.
	fmt.Fprintf(bw, `{"seq":%d,"epoch":%d`, seq, s.reg.ChangeEpoch())
	if followerOf != "" {
		quoted, _ := json.Marshal(followerOf)
		fmt.Fprintf(bw, `,"follower_of":%s`, quoted)
	}
	if delta {
		// The removed list is tombstone-ring-bounded; it never rivals
		// the entry set for size.
		data, err := json.Marshal(removed)
		if err != nil {
			return
		}
		_, _ = bw.WriteString(`,"delta":true,"removed":`)
		_, _ = bw.Write(data)
	}
	_, _ = bw.WriteString(`,"entries":[`)
	for i, e := range entries {
		if i > 0 {
			_ = bw.WriteByte(',')
		}
		data, err := json.Marshal(e)
		if err != nil {
			return // headers are out; the truncated body fails the client's decode
		}
		_, _ = bw.Write(data)
	}
	_, _ = bw.WriteString("]}\n")
	_ = bw.Flush()
}

// errGone keeps the 410 wording in one place for /changes and tests.
var errGone = errors.New("re-bootstrap from /snapshot")
