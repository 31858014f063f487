package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"netcoord"
)

// memoCluster is the state TestResultBodiesIgnoreStaleMemos drives: the
// registry that takes writes, the servers whose reads are checked, and
// what the writes have done so far.
type memoCluster struct {
	t   *testing.T
	rng *rand.Rand

	writer  *netcoord.Registry
	servers map[string]*Server // name -> server, each over its registry
	regs    map[string]*netcoord.Registry

	live    map[string]netcoord.Coordinate
	removed map[string]netcoord.Coordinate
	recent  []string // ids removed one at a time since the last burst, last last
	next    int
	revived int
}

func memoPoint(rng *rand.Rand) netcoord.Coordinate {
	return netcoord.Coordinate{Vec: []float64{rng.Float64() * 300, rng.Float64() * 300, rng.Float64() * 300}, Height: float64(rng.IntN(2)) * rng.Float64() * 20}
}

// nudge returns a copy of c moved by a few ulps on one axis: a new
// coordinate that renders differently but descends the tree as c did,
// so re-adding at it revives c's tombstoned leaf when that was a leaf.
func nudge(rng *rand.Rand, c netcoord.Coordinate) netcoord.Coordinate {
	out := netcoord.Coordinate{Vec: append([]float64(nil), c.Vec...), Height: c.Height}
	out.Vec[rng.IntN(len(out.Vec))] += 1e-9
	return out
}

// ids returns the keys of m sorted: map order is random, and the seed
// alone must decide.
func ids(m map[string]netcoord.Coordinate) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// pick returns a seeded random key of m.
func pick(rng *rand.Rand, m map[string]netcoord.Coordinate) string {
	all := ids(m)
	return all[rng.IntN(len(all))]
}

func (c *memoCluster) upsert(id string, at netcoord.Coordinate) {
	if err := c.writer.Upsert(id, at, 0.1); err != nil {
		c.t.Fatal(err)
	}
	c.live[id] = at
	delete(c.removed, id)
}

func (c *memoCluster) remove(id string) {
	c.writer.Remove(id)
	c.removed[id] = c.live[id]
	delete(c.live, id)
}

// step applies one seeded write to the writer and returns the
// coordinates the reads should be centred on: where it wrote.
func (c *memoCluster) step() []netcoord.Coordinate {
	rng := c.rng
	switch op := rng.IntN(10); {
	case op < 3: // move: elsewhere, or up or down on the same vector
		id := pick(rng, c.live)
		at := memoPoint(rng)
		if rng.IntN(3) == 0 {
			c.check("before lifting "+id, []netcoord.Coordinate{c.live[id]})
			at.Vec = c.live[id].Vec
		}
		c.upsert(id, at)
		return []netcoord.Coordinate{c.live[id]}
	case op < 5: // heartbeat: the same coordinate in a fresh vector
		id := pick(rng, c.live)
		was := c.live[id]
		c.upsert(id, netcoord.Coordinate{Vec: append([]float64(nil), was.Vec...), Height: was.Height})
		return []netcoord.Coordinate{was}
	case op < 7: // remove, once an answer has filled the slot's memo
		id := pick(rng, c.live)
		at := c.live[id]
		c.check("before removing "+id, []netcoord.Coordinate{at})
		c.remove(id)
		c.recent = append(c.recent, id)
		return []netcoord.Coordinate{at}
	case op < 9 && len(c.recent) > 0:
		// Re-add the id removed last beside where it was, or a new id at
		// its very coordinate — the same vector — both down the path to
		// its slot: the revive path, while no rebuild has compacted the
		// slot away.
		id := c.recent[len(c.recent)-1]
		c.recent = c.recent[:len(c.recent)-1]
		was, gone := c.removed[id]
		if !gone {
			return nil
		}
		at := nudge(rng, was)
		if rng.IntN(2) == 0 {
			id, at = fmt.Sprintf("n%05d", c.next), was
			c.next++
		}
		before := c.writer.Stats()
		c.upsert(id, at)
		if after := c.writer.Stats(); after.IndexRebuilds == before.IndexRebuilds && after.IndexTombstones < before.IndexTombstones {
			c.revived++
		}
		return []netcoord.Coordinate{c.live[id]}
	default:
		// A burst: new ids until the doubling rule rebuilds the tree,
		// or, once it is big, removals until the tombstones do.
		before := c.writer.Stats().IndexRebuilds
		var at []netcoord.Coordinate
		if len(c.live) < 1000 {
			for c.writer.Stats().IndexRebuilds == before {
				id := fmt.Sprintf("n%05d", c.next)
				c.next++
				c.upsert(id, memoPoint(rng))
				at = append(at, c.live[id])
			}
		} else {
			all := ids(c.live)
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			for _, id := range all {
				if c.writer.Stats().IndexRebuilds != before {
					break
				}
				at = append(at, c.live[id])
				c.remove(id)
			}
		}
		c.recent = c.recent[:0]
		return at[:min(len(at), 4)]
	}
}

// check reads every server with POST /nearest, GET /nearest and POST
// /nearest/batch around the given points and random ones, and requires
// each body to equal the one its registry's answer renders to with
// every memo bypassed.
func (c *memoCluster) check(label string, around []netcoord.Coordinate) {
	t, rng := c.t, c.rng
	points := append([]netcoord.Coordinate(nil), around...)
	for len(points) < len(around)+3 {
		points = append(points, memoPoint(rng))
	}
	near := pick(rng, c.live)
	for name, srv := range c.servers {
		reg := c.regs[name]
		var batch []byte
		var queries []netcoord.NearestQuery
		for i, p := range points {
			body := appendBenchCoord([]byte(`{"coord":`), p)
			q := netcoord.NearestQuery{From: p, K: 8}
			if i == 0 {
				body = append(body, `,"radius_ms":60}`...)
				q.K, q.HasRadius, q.RadiusMillis = maxK+1, true, 60
			} else {
				body = append(body, `,"k":8}`...)
			}
			got := serveOK(t, srv, http.MethodPost, "/nearest", body)
			res, err := reg.Query(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, truncated := truncate(&q, res)
			var flag *bool
			if q.HasRadius {
				flag = &truncated
			}
			requireBody(t, fmt.Sprintf("%s %s POST /nearest %d", label, name, i), got, func(w http.ResponseWriter) { writeResults(w, bypassMemo(res), flag) })
			if i > 0 {
				batch = append(append(batch, ','), body...)
			}
			queries = append(queries, q)
		}
		got := serveOK(t, srv, http.MethodGet, "/nearest?k=8&id="+near, nil)
		e, _ := reg.Get(near)
		res, err := reg.Query(netcoord.NearestQuery{From: e.Coord, K: 8, Exclude: near}, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireBody(t, fmt.Sprintf("%s %s GET /nearest?id=%s", label, name, near), got, func(w http.ResponseWriter) { writeResults(w, bypassMemo(res), nil) })

		got = serveOK(t, srv, http.MethodPost, "/nearest/batch", append(append([]byte(`{"queries":[`), batch[1:]...), "]}"...))
		results, err := reg.NearestBatch(queries[1:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			results[i] = bypassMemo(results[i])
		}
		requireBody(t, fmt.Sprintf("%s %s POST /nearest/batch", label, name), got, func(w http.ResponseWriter) {
			writeBatchResults(w, results, make([]bool, len(results)))
		})
	}
}

// bypassMemo copies res without the memo cells, so that rendering the
// copy formats every coordinate afresh.
func bypassMemo(res []netcoord.Ranked) []netcoord.Ranked {
	out := make([]netcoord.Ranked, len(res))
	for i, r := range res {
		out[i] = netcoord.Ranked{Candidate: r.Candidate, EstimatedRTT: r.EstimatedRTT}
	}
	return out
}

// serveOK sends one request through srv and returns the 200 body.
func serveOK(t *testing.T, srv *Server, method, target string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// requireBody fails unless got is what render writes.
func requireBody(t *testing.T, label string, got []byte, render func(http.ResponseWriter)) {
	t.Helper()
	rec := httptest.NewRecorder()
	render(rec)
	if want := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: served\n%s\nrendered afresh\n%s", label, got, want)
	}
}

// TestResultBodiesIgnoreStaleMemos is the memo's differential test.
// Each stored point's id and coordinate are rendered once into a cell
// beside it in the index, and a query answer copies them; a slot's cell
// outlives the point in it when a write revives the tombstoned leaf.
// Seeded writes interleave moves (some only changing the height of the
// stored vector), heartbeats, removals, re-adds (the revive path: the
// same id a few ulps from where it was, or a new id at its very
// vector), bursts that trip the doubling and the tombstone rebuilds, a
// follower's bootstrap load, and /promote — first on a leader, then on
// a leader with a follower tailing it, then on the promoted follower.
// Moves and removals first read around the point, so its cell is full
// when its slot changes hands. After each write, every /nearest and
// /nearest/batch body every server sends must equal the same answer
// rendered with its memos bypassed. Dropping any part of the cell's
// identity check — vector, id or height — fails it.
func TestResultBodiesIgnoreStaleMemos(t *testing.T) {
	leaderTS, leader := newTestServiceReg(t, netcoord.RegistryConfig{})
	leaderSrv := leaderTS.Config.Handler.(*Server)
	c := &memoCluster{
		t: t, rng: rand.New(rand.NewPCG(35, 1)),
		writer:  leader,
		servers: map[string]*Server{"leader": leaderSrv},
		regs:    map[string]*netcoord.Registry{"leader": leader},
		live:    map[string]netcoord.Coordinate{}, removed: map[string]netcoord.Coordinate{},
	}
	seed := make([]netcoord.RegistryEntry, 300)
	for i := range seed {
		seed[i] = netcoord.RegistryEntry{ID: fmt.Sprintf("n%05d", i), Coord: memoPoint(c.rng)}
		c.live[seed[i].ID] = seed[i].Coord
	}
	c.next = len(seed)
	if err := leader.UpsertBatch(seed); err != nil {
		t.Fatal(err)
	}
	c.check("bulk load", nil)
	for i := 0; i < 150; i++ {
		c.check(fmt.Sprintf("leader step %d", i), c.step())
	}

	f := startTestFollower(t, leaderTS.URL)
	waitConverged(t, f, leader)
	followerSrv := New(Config{Registry: f.Registry, Follower: f})
	t.Cleanup(followerSrv.Stop)
	c.servers["follower"], c.regs["follower"] = followerSrv, f.Registry
	c.check("follower load", nil)
	for i := 0; i < 100; i++ {
		at := c.step()
		waitConverged(t, f, leader)
		c.check(fmt.Sprintf("tailed step %d", i), at)
	}

	promoted := serveOK(t, followerSrv, http.MethodPost, "/promote", nil)
	if !strings.Contains(string(promoted), `"promoted":true`) {
		t.Fatalf("/promote answered %s", promoted)
	}
	delete(c.servers, "leader")
	c.writer = f.Registry
	c.check("promoted", nil)
	for i := 0; i < 100; i++ {
		c.check("promoted step "+strconv.Itoa(i), c.step())
	}
	if c.revived == 0 {
		t.Fatal("no re-add revived a tombstoned slot: the path the memo's identity check guards never ran")
	}
	t.Logf("%d re-adds revived a slot; leader rebuilt %d times, follower %d", c.revived, leader.Stats().IndexRebuilds, f.Stats().IndexRebuilds)
}
