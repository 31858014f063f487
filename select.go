package netcoord

import (
	"fmt"
	"slices"

	"netcoord/internal/bheap"
	"netcoord/internal/coord"
)

// Candidate pairs an application identifier with that node's coordinate,
// for latency-aware selection.
type Candidate struct {
	// ID is the caller's name for the node.
	ID string
	// Coord is the node's coordinate — use application-level coordinates
	// here, so selections do not churn with every Vivaldi refinement.
	Coord Coordinate
}

// Ranked is a Candidate with its estimated RTT from the reference
// coordinate.
//
// A Ranked that a Registry returned pins the registry's index arena as
// it was when the query ran — every stored record, not just this one —
// until the Ranked is dropped, even after the registry has rebuilt or
// reloaded into a new arena. A caller that keeps answers for long
// copies out the fields it needs instead of holding the Ranked.
type Ranked struct {
	Candidate
	// EstimatedRTT is the predicted round-trip time in milliseconds.
	EstimatedRTT float64

	// memo, on a Registry's answer, is the cell beside the stored point
	// in the index that memoizes its JSON rendering (see AppendJSON);
	// nil elsewhere. It is the pointer that pins the arena.
	memo *coord.JSONCell
}

// AppendJSON appends r as {"id":…,"coord":…,"estimated_rtt_ms":…},
// byte for byte what encoding/json renders for those three fields. ok
// is false, and the slice nil, when a value needs encoding/json itself:
// an id that needs escaping, or a number that is not finite. A Registry
// stores application-level coordinates, which change rarely, so the id
// and coordinate of a Ranked it returned are rendered once per stored
// point, not once per answer: the first answer to render them stores the
// bytes beside the point in the index, and later answers copy them, so
// an answer formats only its estimated RTTs.
//
//nc:hotpath
func (r *Ranked) AppendJSON(dst []byte) (_ []byte, ok bool) {
	if dst, ok = r.memo.AppendResultPrefix(dst, r.ID, r.Coord); !ok {
		return nil, false
	}
	dst = append(dst, `,"estimated_rtt_ms":`...)
	if dst, ok = coord.AppendJSONFloat(dst, r.EstimatedRTT); !ok {
		return nil, false
	}
	return append(dst, '}'), true
}

// Nearest returns the k candidates with the smallest estimated RTT from
// the reference coordinate, ascending — the distributed
// k-nearest-neighbors primitive the paper's overlay work builds on. If
// fewer than k candidates are given, all are returned. Candidates whose
// coordinates cannot be compared with from (dimension mismatch) produce
// an error: silently dropping them would corrupt placement decisions.
//
// Selection runs in O(n log k): a bounded max-heap keeps the best k seen
// so far, so for the common k ≪ n case no full sort of the candidate set
// ever happens. Equal-RTT candidates rank in input order, exactly as the
// previous full stable sort ordered them. For repeated queries over a
// long-lived node set, use a Registry instead: its spatial index answers
// without visiting every candidate.
func Nearest(from Coordinate, candidates []Candidate, k int) ([]Ranked, error) {
	if k <= 0 {
		return nil, fmt.Errorf("netcoord: k = %d, want > 0", k)
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	h := bheap.New(k, rankedBefore)
	for i, c := range candidates {
		d, err := from.DistanceTo(c.Coord)
		if err != nil {
			return nil, fmt.Errorf("netcoord: candidate %q: %w", c.ID, err)
		}
		h.Offer(rankedAt{Ranked: Ranked{Candidate: c, EstimatedRTT: d}, pos: i})
	}
	kept := h.Items()
	// slices.SortFunc rather than sort.Slice: no interface boxing of the
	// slice header, so the sort itself contributes no allocations.
	//nc:allow(hotpath) generic SortFunc: the slice binds a type parameter, no interface boxing happens at runtime
	slices.SortFunc(kept, func(a, b rankedAt) int {
		if rankedBefore(a, b) {
			return -1
		}
		if rankedBefore(b, a) {
			return 1
		}
		return 0
	})
	out := make([]Ranked, len(kept))
	for i, it := range kept {
		out[i] = it.Ranked
	}
	return out, nil
}

// rankedAt carries the candidate's input position so that equal-RTT
// candidates keep their input order, matching a stable sort.
type rankedAt struct {
	Ranked
	pos int
}

// rankedBefore is the total order Nearest returns: RTT ascending, input
// position breaking ties.
func rankedBefore(a, b rankedAt) bool {
	if a.EstimatedRTT != b.EstimatedRTT {
		return a.EstimatedRTT < b.EstimatedRTT
	}
	return a.pos < b.pos
}

// MinimaxPlacement picks the candidate minimizing the worst-case
// estimated RTT to every anchor — the stream-operator placement decision
// from the paper's motivating application (e.g. a join operator between
// a producer and a consumer). Returns the best candidate and its
// worst-case RTT.
func MinimaxPlacement(anchors []Coordinate, candidates []Candidate) (Ranked, error) {
	if len(anchors) == 0 {
		return Ranked{}, fmt.Errorf("netcoord: no anchors")
	}
	if len(candidates) == 0 {
		return Ranked{}, fmt.Errorf("netcoord: no candidates")
	}
	best := Ranked{EstimatedRTT: -1}
	for _, c := range candidates {
		worst := 0.0
		for _, a := range anchors {
			d, err := c.Coord.DistanceTo(a)
			if err != nil {
				return Ranked{}, fmt.Errorf("netcoord: candidate %q: %w", c.ID, err)
			}
			if d > worst {
				worst = d
			}
		}
		if best.EstimatedRTT < 0 || worst < best.EstimatedRTT {
			best = Ranked{Candidate: c, EstimatedRTT: worst}
		}
	}
	return best, nil
}
