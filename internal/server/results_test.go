package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	"netcoord"
)

// stdlibBody is what the handlers sent before the append encoder: the
// value through writeJSON's json.Encoder, trailing newline included.
func stdlibBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resultSets returns ranked lists that push the encoder onto its edges:
// signed zeros, both ends of the exponent switch, subnormals, and ids
// the fast path must hand to the stdlib.
func resultSets() [][]netcoord.Ranked {
	ranked := func(id string, rtt, height float64, vec ...float64) netcoord.Ranked {
		return netcoord.Ranked{Candidate: netcoord.Candidate{ID: id, Coord: netcoord.Coordinate{Vec: vec, Height: height}}, EstimatedRTT: rtt}
	}
	negZero := math.Copysign(0, -1)
	sets := [][]netcoord.Ranked{
		nil,
		{},
		{ranked("node-0000001", 12.5, 0, 1, 2, 3)},
		{ranked("zeros", 0, negZero, 0, negZero, 0), ranked("neg-rtt", negZero, 0, 1)},
		{ranked("exp", 1e-7, 1e21, 1e-6, 9.99999e-7, 1e20, -1e21), ranked("sub", 5e-324, 2.2250738585072009e-308, -5e-324)},
		{ranked("", 1, 0.5), ranked("nil-vec", 2, 0)},
		{ranked("a<b", 1, 0, 1), ranked("plain", 2, 0, 2)},
		{ranked("plain", 1, 0, 1), ranked(`q"uote`, 2, 0, 2)},
		{ranked("ünï", 1, 0, 1)},
		{ranked("amp&", 1, 0, 1), ranked("back\\slash", 2, 1, 2), ranked("ctl\n", 3, 0, 3)},
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 200; i++ {
		set := make([]netcoord.Ranked, rng.IntN(12))
		for j := range set {
			vec := make([]float64, 1+rng.IntN(4))
			for d := range vec {
				vec[d] = math.Float64frombits(rng.Uint64())
				if math.IsNaN(vec[d]) || math.IsInf(vec[d], 0) {
					vec[d] = 0
				}
			}
			set[j] = ranked("node-"+string(rune('a'+rng.IntN(26))), rng.Float64()*300, float64(rng.IntN(3))*rng.Float64(), vec...)
		}
		sets = append(sets, set)
	}
	return sets
}

// TestResultEncodingMatchesStdlib renders every result set both ways —
// the append encoder the handlers use, and encoding/json over the
// shapes they used to build — and requires identical bytes, for the
// single-query body with each truncated form and for the batch body.
func TestResultEncodingMatchesStdlib(t *testing.T) {
	sets := resultSets()
	if _, ok := appendResults(nil, sets[2], nil); !ok {
		t.Fatal("the append encoder declined a plain result set: nothing below would test it")
	}
	if _, ok := appendResults(nil, sets[6], nil); ok {
		t.Fatal("the append encoder rendered an id the stdlib escapes")
	}
	yes, no := true, false
	for i, res := range sets {
		for _, truncated := range []*bool{nil, &yes, &no} {
			want := map[string]any{"results": toRankedJSON(res)}
			if truncated != nil {
				want["truncated"] = *truncated
			}
			rec := httptest.NewRecorder()
			writeResults(rec, res, truncated)
			if got := rec.Body.Bytes(); !bytes.Equal(got, stdlibBody(t, want)) {
				t.Fatalf("set %d: single body diverges from stdlib:\n got %s\nwant %s", i, got, stdlibBody(t, want))
			}
			if ct := rec.Header().Get("Content-Type"); rec.Code != 200 || ct != "application/json" {
				t.Fatalf("set %d: status %d, content type %q", i, rec.Code, ct)
			}
		}
	}
	// Batches: a window of consecutive sets, so fast-path-only batches,
	// batches with one declined id, and empty result lists all occur.
	for lo := 0; lo < len(sets); lo++ {
		hi := min(lo+1+lo%5, len(sets))
		truncated := make([]bool, hi-lo)
		want := make([]nearestBatchResult, hi-lo)
		for i, res := range sets[lo:hi] {
			truncated[i] = (lo+i)%3 == 0
			want[i] = nearestBatchResult{Results: toRankedJSON(res), Truncated: truncated[i]}
		}
		rec := httptest.NewRecorder()
		writeBatchResults(rec, sets[lo:hi], truncated)
		if got, want := rec.Body.Bytes(), stdlibBody(t, map[string]any{"results": want}); !bytes.Equal(got, want) {
			t.Fatalf("batch [%d,%d) diverges from stdlib:\n got %s\nwant %s", lo, hi, got, want)
		}
	}
}
