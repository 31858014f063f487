// Package gen produces every input the ncload benchmark sends — registry
// entries, query points, the heartbeat/move/probe write schedule and the
// recover workload's data directory — from one seed, and holds the
// brute-force oracle the benchmark checks answers against. The programs
// under test only ever see what this package generated.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"netcoord"
)

// Shape of the generated latency space (ISSUE 11 "Data"): 3-D
// coordinates drawn from 8 Gaussian clusters plus a uniform background.
const (
	Dim            = 3
	clusters       = 8
	spaceMillis    = 300.0
	clusterSigma   = 20.0
	backgroundFrac = 0.10
	maxHeight      = 5.0
	EntryError     = 0.3
	K              = 8  // every query asks for the 8 nearest
	BatchSize      = 32 // queries per /nearest/batch request
	maxMoveMillis  = 20.0
)

// Streams keep the generators independent: drawing more query points
// never changes the entries or the write schedule of the same seed.
const (
	streamEntries = iota + 1
	streamQueries
	streamWrites
)

// Space is the seeded cluster layout shared by entries and queries.
type Space struct {
	centres [clusters][Dim]float64
}

// NewSpace draws the cluster centres for a seed.
func NewSpace(seed uint64) *Space {
	rng := rand.New(rand.NewPCG(seed, 0))
	s := &Space{}
	for c := range s.centres {
		for d := range s.centres[c] {
			s.centres[c][d] = rng.Float64() * spaceMillis
		}
	}
	return s
}

// Point draws one coordinate from the space's distribution.
func (s *Space) Point(rng *rand.Rand) netcoord.Coordinate {
	v := make([]float64, Dim)
	if rng.Float64() < backgroundFrac {
		for d := range v {
			v[d] = rng.Float64() * spaceMillis
		}
	} else {
		c := &s.centres[rng.IntN(clusters)]
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()*clusterSigma
		}
	}
	return netcoord.Coordinate{Vec: v, Height: rng.Float64() * maxHeight}
}

// EntryID names entry i.
func EntryID(i int) string { return fmt.Sprintf("node-%07d", i) }

// Entries returns n registry entries for a seed.
func Entries(seed uint64, n int) []netcoord.RegistryEntry {
	space := NewSpace(seed)
	rng := rand.New(rand.NewPCG(seed, streamEntries))
	out := make([]netcoord.RegistryEntry, n)
	for i := range out {
		out[i] = netcoord.RegistryEntry{ID: EntryID(i), Coord: space.Point(rng), Error: EntryError}
	}
	return out
}

// Queries is an endless seeded stream of query points.
type Queries struct {
	space *Space
	rng   *rand.Rand
}

// NewQueries starts the query stream of a seed.
func NewQueries(seed uint64) *Queries {
	return &Queries{space: NewSpace(seed), rng: rand.New(rand.NewPCG(seed, streamQueries))}
}

// Next draws the next query point.
func (q *Queries) Next() netcoord.Coordinate { return q.space.Point(q.rng) }

// OpKind classifies one write of the write-replicate schedule.
type OpKind uint8

const (
	// Heartbeat re-upserts an existing id at its current coordinate.
	Heartbeat OpKind = iota
	// Move shifts an existing id by at most maxMoveMillis.
	Move
	// Probe moves ProbeID into or out of the watcher's top-k.
	Probe
)

// ProbeID is the entry the probe upserts toggle.
const ProbeID = "probe-0"

// probeFar is far outside the populated space, so a probe parked there
// is never among anyone's nearest.
const probeFar = 100 * spaceMillis

// WriteOp is one upsert of the schedule.
type WriteOp struct {
	Kind  OpKind
	Entry netcoord.RegistryEntry
	// In reports, for a Probe, whether it lands inside the watched top-k.
	In bool
}

// Writes generates the write-replicate schedule: cycles of 9 background
// upserts (90 % heartbeats, 10 % small moves) followed by one probe. It
// owns the benchmark's copy of the entries and keeps it current, so
// after any prefix of the schedule Entries is what the servers must
// hold.
type Writes struct {
	// Entries is the expected registry content, probe included once it
	// has been written.
	Entries []netcoord.RegistryEntry
	// Watch is the coordinate the benchmark's watcher subscribes to;
	// the probe alternates between it and a far-away parking spot.
	Watch netcoord.Coordinate

	rng      *rand.Rand
	inCycle  int
	probeIn  bool
	probeIdx int // index of the probe in Entries, -1 before its first write
}

// backgroundPerCycle is the number of background upserts before each probe.
const backgroundPerCycle = 9

// NewWrites starts the schedule over a copy of entries.
func NewWrites(seed uint64, entries []netcoord.RegistryEntry) *Writes {
	rng := rand.New(rand.NewPCG(seed, streamWrites))
	w := &Writes{
		Entries:  append([]netcoord.RegistryEntry(nil), entries...),
		rng:      rng,
		probeIdx: -1,
	}
	// Watch from the middle of the first cluster: a populated
	// neighbourhood, so background moves also reach the watch hub.
	c := NewSpace(seed).centres[0]
	w.Watch = netcoord.Coordinate{Vec: []float64{c[0], c[1], c[2]}}
	return w
}

// Next returns the next upsert and applies it to Entries.
func (w *Writes) Next() WriteOp {
	if w.inCycle == backgroundPerCycle {
		w.inCycle = 0
		w.probeIn = !w.probeIn
		e := netcoord.RegistryEntry{ID: ProbeID, Error: EntryError}
		if w.probeIn {
			e.Coord = netcoord.Coordinate{Vec: append([]float64(nil), w.Watch.Vec...)}
		} else {
			e.Coord = netcoord.Coordinate{Vec: []float64{probeFar, probeFar, probeFar}}
		}
		if w.probeIdx < 0 {
			w.probeIdx = len(w.Entries)
			w.Entries = append(w.Entries, e)
		} else {
			w.Entries[w.probeIdx] = e
		}
		return WriteOp{Kind: Probe, Entry: e, In: w.probeIn}
	}
	w.inCycle++
	n := len(w.Entries)
	if w.probeIdx >= 0 {
		n-- // background traffic never touches the probe (it is the last entry)
	}
	i := w.rng.IntN(n)
	if w.rng.Float64() < 0.9 {
		return WriteOp{Kind: Heartbeat, Entry: w.Entries[i]}
	}
	// A move of uniform length in a uniform direction.
	var dir [Dim]float64
	var norm float64
	for d := range dir {
		dir[d] = w.rng.NormFloat64()
		norm += dir[d] * dir[d]
	}
	scale := w.rng.Float64() * maxMoveMillis / math.Sqrt(norm)
	e := w.Entries[i]
	v := make([]float64, Dim)
	for d := range v {
		v[d] = e.Coord.Vec[d] + dir[d]*scale
	}
	e.Coord = netcoord.Coordinate{Vec: v, Height: e.Coord.Height}
	w.Entries[i] = e
	return WriteOp{Kind: Move, Entry: e}
}

// AppendCoord appends c as the JSON object the server's decoder reads.
func AppendCoord(dst []byte, c netcoord.Coordinate) []byte {
	dst = append(dst, `{"vec":[`...)
	for i, x := range c.Vec {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	dst = append(dst, `],"height":`...)
	dst = strconv.AppendFloat(dst, c.Height, 'g', -1, 64)
	return append(dst, '}')
}

// AppendEntry appends e as one element of an /upsert body.
func AppendEntry(dst []byte, e netcoord.RegistryEntry) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendQuote(dst, e.ID)
	dst = append(dst, `,"coord":`...)
	dst = AppendCoord(dst, e.Coord)
	dst = append(dst, `,"error":`...)
	dst = strconv.AppendFloat(dst, e.Error, 'g', -1, 64)
	return append(dst, '}')
}

// AppendUpsertBatch appends a {"entries":[...]} /upsert body.
func AppendUpsertBatch(dst []byte, entries []netcoord.RegistryEntry) []byte {
	dst = append(dst, `{"entries":[`...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendEntry(dst, e)
	}
	return append(dst, "]}"...)
}

// AppendNearest appends a POST /nearest body for one query point.
func AppendNearest(dst []byte, from netcoord.Coordinate) []byte {
	dst = append(dst, `{"coord":`...)
	dst = AppendCoord(dst, from)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, K, 10)
	return append(dst, '}')
}

// AppendNearestBatch appends a POST /nearest/batch body.
func AppendNearestBatch(dst []byte, from []netcoord.Coordinate) []byte {
	dst = append(dst, `{"queries":[`...)
	for i, c := range from {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendNearest(dst, c)
	}
	return append(dst, "]}"...)
}

// RecoverTail is the number of WAL records the recover data directory
// holds after its snapshot.
const RecoverTail = 20000

// BuildRecoverDir writes, through the public persistent registry, a
// data directory holding a snapshot of entries and a WAL tail of tail
// further upserts from the seed's write schedule. It returns the
// content a server recovering the directory must serve and the stream
// sequence it must report.
func BuildRecoverDir(dir string, seed uint64, entries []netcoord.RegistryEntry, tail int) ([]netcoord.RegistryEntry, uint64, error) {
	pr, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{
		Dir:              dir,
		SnapshotInterval: -1, // the one snapshot is taken below, at a known point
	})
	if err != nil {
		return nil, 0, err
	}
	if err := pr.UpsertBatch(entries); err != nil {
		_ = pr.Close()
		return nil, 0, err
	}
	if err := pr.Compact(); err != nil {
		_ = pr.Close()
		return nil, 0, err
	}
	w := NewWrites(seed, entries)
	for i := 0; i < tail; i++ {
		op := w.Next()
		if err := pr.Upsert(op.Entry.ID, op.Entry.Coord, op.Entry.Error); err != nil {
			_ = pr.Close()
			return nil, 0, err
		}
	}
	seq := pr.ChangeSeq()
	if err := pr.Close(); err != nil {
		return nil, 0, err
	}
	return w.Entries, seq, nil
}
