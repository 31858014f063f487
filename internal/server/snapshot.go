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

// handleSnapshot serves the registry's snapshot: its entries, the
// stream sequence to resume from and its removal knowledge.
//
// With ?since=<seq> the registry answers with a *delta* when its
// tombstone ring proves it knows every removal since then: live
// entries whose per-entry sequence is newer than since (provable at any
// depth — entries carry the sequence that produced them), plus the
// removals. Heartbeat upserts are what churn the event ring; removals
// are rare, so the tombstone ring proves removal-completeness far below
// the 410 floor — which is exactly when a truncated follower shows up
// here. When even the tombstone ring cannot cover the gap, the answer
// is the full snapshot; the client tells the two apart by the delta
// flag.
//
// The body is streamed entry by entry through a small buffer — a
// bootstrap of a multi-million-entry registry must not materialize a
// second (and third) copy of it in one response buffer. On a follower
// the sequence is its applied position in the leader's sequence space
// and the body carries `follower_of` (informational: replicas relay
// the stream, so chaining a replica off a replica is supported).
func (s *Server) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	var since uint64
	if raw := req.URL.Query().Get("since"); raw != "" {
		var err error
		if since, err = strconv.ParseUint(raw, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
	}
	var followerOf string
	if s.replica() {
		followerOf = s.follower.FollowerStats().LeaderURL
	}
	snap := s.reg.SnapshotSince(since)
	if strings.Contains(req.Header.Get("Accept"), wire.ContentTypeSnapshot) || req.URL.Query().Get("format") == "frames" {
		w.Header().Set("Content-Type", wire.ContentTypeSnapshot)
		w.WriteHeader(http.StatusOK)
		bw := bufio.NewWriterSize(w, 1<<16)
		if wire.WriteSnapshot(bw, followerOf, &snap) == nil {
			_ = bw.Flush() // headers are out; a body cut short fails the client's decode
		}
		return
	}
	writeSnapshotJSON(w, followerOf, &snap)
}

// writeSnapshotJSON renders a (full or delta) snapshot for humans,
// entry by entry through a small buffer: under heartbeat churn a
// "delta" approaches the whole registry, so it must not materialize
// registry-sized response copies any more than the full path may. A
// delta lists its removed ids, each once; a full body carries no
// removal knowledge.
func writeSnapshotJSON(w http.ResponseWriter, followerOf string, snap *netcoord.RegistrySnapshot) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 1<<16)
	// The epoch rides the bootstrap pair: a replica refusing to re-base
	// onto a deposed leader's snapshot needs the epoch of the state it
	// is about to adopt.
	fmt.Fprintf(bw, `{"seq":%d,"epoch":%d`, snap.Seq, snap.Epoch)
	if followerOf != "" {
		quoted, _ := json.Marshal(followerOf)
		fmt.Fprintf(bw, `,"follower_of":%s`, quoted)
	}
	if snap.Delta {
		// The removed list is tombstone-ring-bounded; it never rivals
		// the entry set for size.
		removed := []string{}
		seen := make(map[string]bool, len(snap.Tombstones))
		for _, t := range snap.Tombstones {
			if !seen[t.ID] {
				seen[t.ID] = true
				removed = append(removed, t.ID)
			}
		}
		data, err := json.Marshal(removed)
		if err != nil {
			return
		}
		_, _ = bw.WriteString(`,"delta":true,"removed":`)
		_, _ = bw.Write(data)
	}
	_, _ = bw.WriteString(`,"entries":[`)
	for i, e := range snap.Entries {
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
