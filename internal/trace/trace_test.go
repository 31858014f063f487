package trace

import (
	"bytes"
	"errors"
	"testing"

	"netcoord/internal/netsim"
)

func testNetwork(t *testing.T, nodes int) *netsim.Network {
	t.Helper()
	n, err := netsim.New(netsim.DefaultWideArea(nodes, 1))
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	return n
}

func TestGeneratorConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  GeneratorConfig
		ok   bool
	}{
		{name: "valid", cfg: GeneratorConfig{IntervalTicks: 1, DurationTicks: 10}, ok: true},
		{name: "zero interval", cfg: GeneratorConfig{IntervalTicks: 0, DurationTicks: 10}},
		{name: "zero duration", cfg: GeneratorConfig{IntervalTicks: 1, DurationTicks: 0}},
		{name: "negative neighbors", cfg: GeneratorConfig{IntervalTicks: 1, DurationTicks: 1, NeighborCount: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.ok && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tt.ok && err == nil {
				t.Fatal("Validate succeeded")
			}
		})
	}
}

func TestGeneratorEveryNodeSamplesEachTick(t *testing.T) {
	net := testNetwork(t, 6)
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 1, DurationTicks: 3})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	samples := Collect(g, 0)
	if len(samples) != 18 { // 6 nodes x 3 ticks
		t.Fatalf("collected %d samples, want 18", len(samples))
	}
	perTick := map[uint64]map[int]bool{}
	for _, s := range samples {
		if perTick[s.Tick] == nil {
			perTick[s.Tick] = map[int]bool{}
		}
		if perTick[s.Tick][s.From] {
			t.Fatalf("node %d sampled twice in tick %d", s.From, s.Tick)
		}
		perTick[s.Tick][s.From] = true
		if s.From == s.To {
			t.Fatalf("self sample: %+v", s)
		}
	}
	for tick, nodes := range perTick {
		if len(nodes) != 6 {
			t.Fatalf("tick %d: %d nodes sampled, want 6", tick, len(nodes))
		}
	}
}

func TestGeneratorIntervalStaggering(t *testing.T) {
	net := testNetwork(t, 10)
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 5, DurationTicks: 10})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	samples := Collect(g, 0)
	// Each node samples twice over 10 ticks (period 5).
	counts := map[int]int{}
	for _, s := range samples {
		counts[s.From]++
		if s.Tick%5 != uint64(s.From)%5 {
			t.Fatalf("node %d sampled at tick %d, violating stagger", s.From, s.Tick)
		}
	}
	for n, c := range counts {
		if c != 2 {
			t.Fatalf("node %d sampled %d times, want 2", n, c)
		}
	}
}

func TestGeneratorRoundRobinNeighbors(t *testing.T) {
	net := testNetwork(t, 4)
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 1, DurationTicks: 6})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	var targets []int
	for {
		s, ok := g.Next()
		if !ok {
			break
		}
		if s.From == 0 {
			targets = append(targets, s.To)
		}
	}
	// Node 0 over 6 ticks must cycle 1,2,3,1,2,3.
	want := []int{1, 2, 3, 1, 2, 3}
	if len(targets) != len(want) {
		t.Fatalf("targets = %v", targets)
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Fatalf("targets = %v, want %v", targets, want)
		}
	}
}

func TestGeneratorBoundedNeighborSet(t *testing.T) {
	net := testNetwork(t, 20)
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 1, DurationTicks: 40, NeighborCount: 3, Seed: 7})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	seen := map[int]map[int]bool{}
	for {
		s, ok := g.Next()
		if !ok {
			break
		}
		if seen[s.From] == nil {
			seen[s.From] = map[int]bool{}
		}
		seen[s.From][s.To] = true
	}
	for n, set := range seen {
		if len(set) != 3 {
			t.Fatalf("node %d sampled %d distinct targets, want 3", n, len(set))
		}
	}
	if len(g.Neighbors(0)) != 3 {
		t.Fatalf("Neighbors(0) = %v", g.Neighbors(0))
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	build := func() []Sample {
		net := testNetwork(t, 8)
		g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 1, DurationTicks: 5, NeighborCount: 4, Seed: 3})
		if err != nil {
			t.Fatalf("NewGenerator: %v", err)
		}
		return Collect(g, 0)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorTicksNonDecreasing(t *testing.T) {
	net := testNetwork(t, 5)
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 2, DurationTicks: 20})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	var last uint64
	for {
		s, ok := g.Next()
		if !ok {
			break
		}
		if s.Tick < last {
			t.Fatalf("tick went backwards: %d after %d", s.Tick, last)
		}
		last = s.Tick
	}
}

func TestSliceSource(t *testing.T) {
	in := []Sample{{Tick: 1, From: 0, To: 1, RTT: 50}, {Tick: 2, From: 1, To: 0, RTT: 51}}
	src := NewSliceSource(in)
	out := Collect(src, 0)
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("Collect = %+v", out)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source returned a sample")
	}
	src.Reset()
	if got := Collect(src, 1); len(got) != 1 || got[0] != in[0] {
		t.Fatalf("after Reset: %+v", got)
	}
}

func TestCollectLimit(t *testing.T) {
	in := make([]Sample, 10)
	got := Collect(NewSliceSource(in), 4)
	if len(got) != 4 {
		t.Fatalf("Collect limit: got %d", len(got))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	samples := []Sample{
		{Tick: 0, From: 0, To: 1, RTT: 42.5},
		{Tick: 1, From: 268, To: 3, RTT: 10000.25, Lost: false},
		{Tick: 99999, From: 5, To: 6, RTT: 0, Lost: true},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}

	r := NewReader(&buf)
	got := Collect(r, 0)
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if len(got) != len(samples) {
		t.Fatalf("read %d samples, want %d", len(got), len(samples))
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Fatalf("sample %d: %+v != %+v", i, got[i], samples[i])
		}
	}
}

func TestWriterRejectsNegativeIDs(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(Sample{From: -1}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("error = %v, want ErrBadTrace", err)
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r := NewReader(&buf)
	if _, ok := r.Next(); ok {
		t.Fatal("empty trace yielded a sample")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err after clean EOF: %v", err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("XXXX000000records")))
	if _, ok := r.Next(); ok {
		t.Fatal("bad magic accepted")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("Err = %v, want ErrBadTrace", r.Err())
	}
}

func TestReaderRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{9, 0, 0, 0, 0, 0}) // version 9
	r := NewReader(&buf)
	if _, ok := r.Next(); ok {
		t.Fatal("bad version accepted")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("Err = %v, want ErrBadTrace", r.Err())
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Sample{Tick: 1, From: 0, To: 1, RTT: 5}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	data := buf.Bytes()[:buf.Len()-3] // chop mid-record
	r := NewReader(bytes.NewReader(data))
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record yielded a sample")
	}
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("Err = %v, want ErrBadTrace", r.Err())
	}
}

func TestGeneratorThroughWriterAndBack(t *testing.T) {
	net := testNetwork(t, 6)
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 1, DurationTicks: 10})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	orig := Collect(g, 0)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, s := range orig {
		if err := w.Write(s); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	back := Collect(NewReader(&buf), 0)
	if len(back) != len(orig) {
		t.Fatalf("round trip count %d, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	net, err := netsim.New(netsim.DefaultWideArea(100, 1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 1, DurationTicks: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator exhausted")
		}
	}
}

func BenchmarkWriterWrite(b *testing.B) {
	w := NewWriter(&bytes.Buffer{})
	s := Sample{Tick: 1, From: 2, To: 3, RTT: 50}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(s); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGeneratorChurn(t *testing.T) {
	net := testNetwork(t, 12)
	g, err := NewGenerator(net, GeneratorConfig{
		IntervalTicks:   1,
		DurationTicks:   200,
		JoinSpreadTicks: 100,
		Seed:            9,
	})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if g.joinTick[0] != 0 {
		t.Fatalf("node 0 join tick = %d, want 0", g.joinTick[0])
	}
	spread := false
	for i := 1; i < 12; i++ {
		if g.joinTick[i] >= 100 {
			t.Fatalf("node %d join tick %d out of spread", i, g.joinTick[i])
		}
		if g.joinTick[i] > 0 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("no node joined late despite churn")
	}
	firstSeen := map[int]uint64{}
	for {
		s, ok := g.Next()
		if !ok {
			break
		}
		// No activity before either endpoint's join tick.
		if s.Tick < g.joinTick[s.From] {
			t.Fatalf("node %d sampled at %d before joining at %d", s.From, s.Tick, g.joinTick[s.From])
		}
		if s.Tick < g.joinTick[s.To] {
			t.Fatalf("node %d sampled at %d before target %d joined at %d", s.From, s.Tick, s.To, g.joinTick[s.To])
		}
		if _, ok := firstSeen[s.From]; !ok {
			firstSeen[s.From] = s.Tick
		}
	}
	// Every node eventually participates.
	if len(firstSeen) != 12 {
		t.Fatalf("only %d nodes ever sampled", len(firstSeen))
	}
}

func TestGeneratorChurnDeterministic(t *testing.T) {
	build := func() []Sample {
		net := testNetwork(t, 8)
		g, err := NewGenerator(net, GeneratorConfig{
			IntervalTicks: 1, DurationTicks: 60, JoinSpreadTicks: 30, Seed: 4,
		})
		if err != nil {
			t.Fatalf("NewGenerator: %v", err)
		}
		return Collect(g, 0)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestGeneratorNoChurnAllJoinAtZero(t *testing.T) {
	net := testNetwork(t, 6)
	g, err := NewGenerator(net, GeneratorConfig{IntervalTicks: 1, DurationTicks: 10})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 6; i++ {
		if g.joinTick[i] != 0 {
			t.Fatalf("node %d join tick = %d without churn", i, g.joinTick[i])
		}
	}
}
