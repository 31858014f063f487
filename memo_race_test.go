package netcoord

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestRankedJSONUnderConcurrentWriters renders answers through their
// memo cells on reader goroutines while a writer moves, removes and
// re-adds ids a few ulps from where they were (reviving their slots),
// bursts inserts through doubling rebuilds, and reloads the whole state
// as a follower's bootstrap does, all in one small cube the readers
// query. Every rendering must be byte for byte the one of the
// coordinate its Ranked carries, rendered afresh. Run it under -race:
// the cells are filled without the registry's lock.
func TestRankedJSONUnderConcurrentWriters(t *testing.T) {
	r, err := NewRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	at := func(rng *rand.Rand) Coordinate {
		return Coordinate{Vec: []float64{rng.Float64() * 30, rng.Float64() * 30, rng.Float64() * 30}, Height: float64(rng.IntN(2)) * rng.Float64()}
	}
	rng := rand.New(rand.NewPCG(35, 2))
	live := make([]RegistryEntry, 200)
	for i := range live {
		live[i] = RegistryEntry{ID: fmt.Sprintf("n%04d", i), Coord: at(rng)}
	}
	if err := r.UpsertBatch(live); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(35, uint64(10+g)))
			var got, want []byte
			var dst []Ranked
			for {
				select {
				case <-stop:
					return
				default:
				}
				var qerr error
				if dst, qerr = r.NearestInto(at(rng), 8, dst); qerr != nil {
					t.Error(qerr)
					return
				}
				for i := range dst {
					fresh := Ranked{Candidate: dst[i].Candidate, EstimatedRTT: dst[i].EstimatedRTT}
					got, _ = dst[i].AppendJSON(got[:0])
					want, _ = fresh.AppendJSON(want[:0])
					if !bytes.Equal(got, want) {
						t.Errorf("served %s, the coordinate it carries renders %s", got, want)
						return
					}
				}
			}
		}()
	}

	defer wg.Wait()
	defer close(stop)
	removed := map[string]Coordinate{}
	for step := 0; step < 1500; step++ {
		i := rng.IntN(len(live))
		switch op := rng.IntN(20); {
		case op < 8:
			live[i].Coord = at(rng)
			err = r.Upsert(live[i].ID, live[i].Coord, 0)
		case op < 13:
			removed[live[i].ID] = live[i].Coord
			r.Remove(live[i].ID)
		case op < 18:
			for id, c := range removed {
				c = Coordinate{Vec: append([]float64(nil), c.Vec...), Height: c.Height}
				c.Vec[rng.IntN(3)] += 1e-9
				delete(removed, id)
				err = r.Upsert(id, c, 0)
				break
			}
		case op < 19 && r.Len() < 1000:
			before := r.Stats().IndexRebuilds
			for n := 0; err == nil && r.Stats().IndexRebuilds == before; n++ {
				err = r.Upsert(fmt.Sprintf("burst%d-%d", step, n), at(rng), 0)
			}
		default:
			// Reload as a follower's bootstrap would, fewer entries at new
			// places, which also keeps the bursts from growing it far.
			entries, seq := r.SnapshotWithSeq()
			entries = entries[:min(len(entries), 200)]
			for j := range entries {
				entries[j].Coord = at(rng)
			}
			err = r.load(entries, nil, false, seq, r.ChangeEpoch())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
