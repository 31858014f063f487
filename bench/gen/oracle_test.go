package gen

import (
	"testing"

	"netcoord"
)

// registryAnswer runs the real registry on the same question.
func registryAnswer(t *testing.T, reg *netcoord.Registry, from netcoord.Coordinate) []Neighbor {
	t.Helper()
	res, err := reg.Nearest(from, K)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Neighbor, len(res))
	for i, r := range res {
		out[i] = Neighbor{ID: r.ID, RTT: r.EstimatedRTT}
	}
	return out
}

func TestOracleAgreesWithRegistryAndCatchesWrongAnswers(t *testing.T) {
	entries := Entries(11, 3000)
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.UpsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	q := NewQueries(11)
	for i := 0; i < 50; i++ {
		from := q.Next()
		want := Nearest(entries, from, K)
		got := registryAnswer(t, reg, from)
		if err := CheckNearest(got, want); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}

		swapped := append([]Neighbor(nil), got...)
		swapped[2], swapped[3] = swapped[3], swapped[2]
		if CheckNearest(swapped, want) == nil {
			t.Fatal("two swapped ranks pass the check")
		}
		shifted := append([]Neighbor(nil), got...)
		shifted[K-1].RTT += 1e-6
		if CheckNearest(shifted, want) == nil {
			t.Fatal("a distance off by 1e-6 ms passes the check")
		}
		if CheckNearest(got[:K-1], want) == nil {
			t.Fatal("a short answer passes the check")
		}
	}
}

func TestCompareSnapshots(t *testing.T) {
	mk := func() Snapshot {
		s := Snapshot{Seq: 9}
		for i, e := range Entries(2, 20) {
			s.Entries = append(s.Entries, SnapshotEntry{ID: e.ID, Coord: e.Coord, Error: e.Error, UpdatedAtUnixNano: int64(100 + i), Seq: uint64(i + 1)})
		}
		return s
	}
	leader, follower := mk(), mk()
	// Replicas may list entries in any order.
	follower.Entries[0], follower.Entries[5] = follower.Entries[5], follower.Entries[0]
	if err := CompareSnapshots(leader, follower); err != nil {
		t.Fatalf("equal snapshots differ: %v", err)
	}
	for name, damage := range map[string]func(*Snapshot){
		"seq":      func(s *Snapshot) { s.Seq++ },
		"missing":  func(s *Snapshot) { s.Entries = s.Entries[1:] },
		"renamed":  func(s *Snapshot) { s.Entries[3].ID = "stranger" },
		"moved":    func(s *Snapshot) { s.Entries[3].Coord.Height += 1 },
		"stamp":    func(s *Snapshot) { s.Entries[3].UpdatedAtUnixNano++ },
		"entrySeq": func(s *Snapshot) { s.Entries[3].Seq++ },
	} {
		f := mk()
		damage(&f)
		if CompareSnapshots(leader, f) == nil {
			t.Errorf("damage %q passes the comparison", name)
		}
	}
	want := Entries(2, 20)
	if err := CheckContent(leader, want); err != nil {
		t.Fatal(err)
	}
	want[4].Coord.Height += 0.5
	if CheckContent(leader, want) == nil {
		t.Fatal("a moved entry passes the content check")
	}
}
