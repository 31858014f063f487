package gen

import (
	"fmt"
	"math"
	"sort"

	"netcoord"
)

// Neighbor is one ranked answer: an id and its estimated RTT.
type Neighbor struct {
	ID  string
	RTT float64
}

// distTolerance is how far a served distance may sit from the oracle's.
const distTolerance = 1e-9

// Distance is the registry's metric: Euclidean distance plus both heights.
func Distance(a, b netcoord.Coordinate) float64 {
	var sum float64
	for i := range a.Vec {
		d := a.Vec[i] - b.Vec[i]
		sum += d * d
	}
	return math.Sqrt(sum) + a.Height + b.Height
}

// Nearest is the brute-force oracle: the k entries closest to from in
// the registry's (distance, id) order, found by scanning all of them.
func Nearest(entries []netcoord.RegistryEntry, from netcoord.Coordinate, k int) []Neighbor {
	best := make([]Neighbor, 0, k+1)
	for i := range entries {
		n := Neighbor{ID: entries[i].ID, RTT: Distance(from, entries[i].Coord)}
		if len(best) == k && !before(n, best[k-1]) {
			continue
		}
		at := sort.Search(len(best), func(j int) bool { return before(n, best[j]) })
		best = append(best, Neighbor{})
		copy(best[at+1:], best[at:])
		best[at] = n
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

func before(a, b Neighbor) bool {
	if a.RTT != b.RTT {
		return a.RTT < b.RTT
	}
	return a.ID < b.ID
}

// CheckNearest compares a served answer with the oracle's: same ids in
// the same order, distances within 1e-9.
func CheckNearest(got, want []Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("answer has %d results, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("rank %d is %q, oracle says %q", i, got[i].ID, want[i].ID)
		}
		if d := math.Abs(got[i].RTT - want[i].RTT); !(d <= distTolerance) {
			return fmt.Errorf("rank %d (%s) is %.12g ms away, oracle says %.12g", i, want[i].ID, got[i].RTT, want[i].RTT)
		}
	}
	return nil
}

// SnapshotEntry is one entry of a served /snapshot, with every field a
// replica must reproduce.
type SnapshotEntry struct {
	ID                string              `json:"id"`
	Coord             netcoord.Coordinate `json:"coord"`
	Error             float64             `json:"error"`
	UpdatedAtUnixNano int64               `json:"updated_at_unix_nano"`
	Seq               uint64              `json:"seq"`
}

// Snapshot is the body of GET /snapshot.
type Snapshot struct {
	Seq     uint64          `json:"seq"`
	Epoch   uint64          `json:"epoch"`
	Entries []SnapshotEntry `json:"entries"`
}

// CompareSnapshots reports the first difference between a leader's and
// a follower's snapshot: a replica at the leader's sequence must hold
// the same entries, field for field.
func CompareSnapshots(leader, follower Snapshot) error {
	if leader.Seq != follower.Seq {
		return fmt.Errorf("follower snapshot at seq %d, leader at %d", follower.Seq, leader.Seq)
	}
	if len(leader.Entries) != len(follower.Entries) {
		return fmt.Errorf("follower holds %d entries, leader %d", len(follower.Entries), len(leader.Entries))
	}
	byID := make(map[string]*SnapshotEntry, len(leader.Entries))
	for i := range leader.Entries {
		byID[leader.Entries[i].ID] = &leader.Entries[i]
	}
	for i := range follower.Entries {
		f := &follower.Entries[i]
		l, ok := byID[f.ID]
		if !ok {
			return fmt.Errorf("follower holds %q, leader does not", f.ID)
		}
		if !l.Coord.Equal(f.Coord) || l.Error != f.Error || l.UpdatedAtUnixNano != f.UpdatedAtUnixNano || l.Seq != f.Seq {
			return fmt.Errorf("entry %q differs: leader %+v, follower %+v", f.ID, *l, *f)
		}
	}
	return nil
}

// CheckContent reports the first difference between a served snapshot
// and the benchmark's own copy of what it wrote (ids and coordinates;
// stamps and sequences are the server's).
func CheckContent(snap Snapshot, want []netcoord.RegistryEntry) error {
	if len(snap.Entries) != len(want) {
		return fmt.Errorf("server holds %d entries, benchmark wrote %d", len(snap.Entries), len(want))
	}
	byID := make(map[string]netcoord.Coordinate, len(want))
	for _, e := range want {
		byID[e.ID] = e.Coord
	}
	for _, e := range snap.Entries {
		c, ok := byID[e.ID]
		if !ok {
			return fmt.Errorf("server holds %q, which the benchmark never wrote", e.ID)
		}
		if !c.Equal(e.Coord) {
			return fmt.Errorf("entry %q is at %v, benchmark wrote %v", e.ID, e.Coord, c)
		}
	}
	return nil
}
