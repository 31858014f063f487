package server

import (
	"net/http"
	"sync"

	"netcoord"
)

// The query endpoints answer with ranked result lists, which at 32
// queries × 8 results a batch made encoding/json — map → reflection →
// Coordinate.MarshalJSON → re-compaction, three allocations a result —
// a fifth of a request's CPU. They are rendered here instead by
// appending into one pooled buffer written once, each result through
// Ranked.AppendJSON: a result's id and coordinate are copied from the
// JSON the index memoizes beside the stored point, so only its
// estimated RTT is formatted per answer, and encoding cost follows how
// often coordinates change, not how often they are read. The bytes
// are exactly encoding/json's (TestResultEncodingMatchesStdlib, and
// TestResultBodiesIgnoreStaleMemos for the memo): when the append
// encoder declines a value — an id that needs escaping — the whole
// response goes through encoding/json, so no response is ever a mix.

// respBufs pools response buffers. One that grew past maxPooledResp
// (a batch of truncated radius queries can reach tens of megabytes) is
// dropped instead of pinned.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 1 << 20

// writeResults answers 200 {"results":[...]}, with "truncated" after it
// when the endpoint reports one.
func writeResults(w http.ResponseWriter, res []netcoord.Ranked, truncated *bool) {
	buf := respBufs.Get().(*[]byte)
	body, ok := appendResults((*buf)[:0], res, truncated)
	if !ok {
		respBufs.Put(buf)
		v := map[string]any{"results": toRankedJSON(res)}
		if truncated != nil {
			v["truncated"] = *truncated
		}
		writeJSON(w, http.StatusOK, v)
		return
	}
	writeBody(w, buf, append(body, '\n'))
}

// writeBatchResults answers 200 {"results":[{"results":[...]},...]},
// element i carrying "truncated":true when truncated[i].
func writeBatchResults(w http.ResponseWriter, results [][]netcoord.Ranked, truncated []bool) {
	buf := respBufs.Get().(*[]byte)
	body := append((*buf)[:0], `{"results":[`...)
	ok := true
	for i := 0; ok && i < len(results); i++ {
		if i > 0 {
			body = append(body, ',')
		}
		var tr *bool // omitempty: only a true is rendered
		if truncated[i] {
			tr = &truncated[i]
		}
		body, ok = appendResults(body, results[i], tr)
	}
	if !ok {
		respBufs.Put(buf)
		out := make([]nearestBatchResult, len(results))
		for i, res := range results {
			out[i] = nearestBatchResult{Results: toRankedJSON(res), Truncated: truncated[i]}
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": out})
		return
	}
	writeBody(w, buf, append(body, "]}\n"...))
}

// writeBody sends an append-encoded 200 response in one Write and
// returns its buffer to the pool.
func writeBody(w http.ResponseWriter, buf *[]byte, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // like writeJSON: a client that hung up is not the handler's to report
	if cap(body) <= maxPooledResp {
		*buf = body
		respBufs.Put(buf)
	}
}

// appendResults appends {"results":[{"id":...,"coord":...,
// "estimated_rtt_ms":...},...]}, then ,"truncated":<v> inside the object
// when truncated is not nil. ok is false when a value needs the stdlib.
func appendResults(dst []byte, res []netcoord.Ranked, truncated *bool) (_ []byte, ok bool) {
	dst = append(dst, `{"results":[`...)
	for i := range res {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, ok = res[i].AppendJSON(dst); !ok {
			return nil, false
		}
	}
	dst = append(dst, ']')
	if truncated != nil {
		if *truncated {
			dst = append(dst, `,"truncated":true`...)
		} else {
			dst = append(dst, `,"truncated":false`...)
		}
	}
	return append(dst, '}'), true
}
