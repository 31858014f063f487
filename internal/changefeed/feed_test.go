package changefeed

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"netcoord/internal/coord"
	"netcoord/internal/wire"
)

func upsert(id string, x float64) Entry {
	return Entry{ID: id, Coord: coord.Coordinate{Vec: []float64{x, 0, 0}}}
}

func TestSequenceIsDenseAndMonotonic(t *testing.T) {
	f := New(8, 0)
	if got := f.PublishUpsert(upsert("a", 1)); got != 1 {
		t.Fatalf("first seq = %d, want 1", got)
	}
	if got := f.PublishRemove("a"); got != 2 {
		t.Fatalf("second seq = %d, want 2", got)
	}
	if got := f.PublishEvict([]string{"b", "c"}); got != 3 {
		t.Fatalf("evict seq = %d, want 3", got)
	}
	if got := f.Seq(); got != 3 {
		t.Fatalf("Seq() = %d, want 3", got)
	}
}

func TestStartSeqContinuesStream(t *testing.T) {
	f := New(4, 100)
	if got := f.PublishUpsert(upsert("a", 1)); got != 101 {
		t.Fatalf("seq after startSeq 100 = %d, want 101", got)
	}
	if got := f.Seq(); got != 101 {
		t.Fatalf("Seq() = %d, want 101", got)
	}
}

func TestTapSeesEveryEventInOrder(t *testing.T) {
	f := New(2, 0) // tiny ring: taps must not depend on it
	var seen []uint64
	f.Tap(func(ev Event) { seen = append(seen, ev.Seq) })
	for i := 0; i < 10; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i), float64(i)))
	}
	if len(seen) != 10 {
		t.Fatalf("tap saw %d events, want 10", len(seen))
	}
	for i, s := range seen {
		if s != uint64(i+1) {
			t.Fatalf("tap order broken at %d: seq %d", i, s)
		}
	}
}

func TestSinceServesRingAndReportsTruncation(t *testing.T) {
	f := New(4, 0)
	for i := 1; i <= 10; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i), float64(i)))
	}
	// Ring holds 7..10.
	evs, err := f.Since(6, 0)
	if err != nil {
		t.Fatalf("Since(6): %v", err)
	}
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("Since(6) = %v, want seqs 7..10", evs)
	}
	if _, err := f.Since(5, 0); err != ErrTruncated {
		t.Fatalf("Since(5) err = %v, want ErrTruncated", err)
	}
	evs, err = f.Since(8, 1)
	if err != nil || len(evs) != 1 || evs[0].Seq != 9 {
		t.Fatalf("Since(8, max 1) = %v, %v; want just seq 9", evs, err)
	}
	if evs, err := f.Since(10, 0); err != nil || len(evs) != 0 {
		t.Fatalf("Since(current) = %v, %v; want empty", evs, err)
	}
	if evs, err := f.Since(99, 0); err != nil || len(evs) != 0 {
		t.Fatalf("Since(future) = %v, %v; want empty", evs, err)
	}
	if got := f.OldestBuffered(); got != 7 {
		t.Fatalf("OldestBuffered = %d, want 7", got)
	}
}

func TestEmptyFeedSince(t *testing.T) {
	f := New(4, 50)
	if evs, err := f.Since(50, 0); err != nil || len(evs) != 0 {
		t.Fatalf("Since(startSeq) on empty feed = %v, %v; want empty, nil", evs, err)
	}
	// History before the start point was never in this feed's ring.
	if _, err := f.Since(10, 0); err != ErrTruncated {
		t.Fatalf("Since(pre-start) err = %v, want ErrTruncated", err)
	}
	if got := f.OldestBuffered(); got != 51 {
		t.Fatalf("OldestBuffered on an empty feed at 50 = %d, want 51, the next event", got)
	}
}

func TestSubscribeFollowsAndJoinSeqSplitsHistory(t *testing.T) {
	f := New(16, 0)
	f.PublishUpsert(upsert("a", 1))
	join := f.Seq()
	var seen []Event
	sub := f.SubscribeFunc(func(ev *Event) bool { seen = append(seen, *ev); return true }, func() {})
	defer sub.Close()
	f.PublishRemove("a")
	if len(seen) != 1 || seen[0].Seq != 2 || seen[0].Op != OpRemove {
		t.Fatalf("sink saw %+v, want the remove at seq 2 only", seen)
	}
	// History at or before the join point comes from Since — no overlap,
	// no gap.
	hist, err := f.Since(0, int(join))
	if err != nil || len(hist) != 1 || hist[0].Seq != 1 {
		t.Fatalf("history = %v, %v; want seq 1 only", hist, err)
	}
}

func TestSlowSubscriberDropsAndCounts(t *testing.T) {
	f := New(16, 0)
	var took []uint64
	sub := f.SubscribeFunc(func(ev *Event) bool {
		if len(took) == 2 {
			return false // full: the rest count as overflows
		}
		took = append(took, ev.Seq)
		return true
	}, func() {})
	defer sub.Close()
	for i := 0; i < 5; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i), float64(i)))
	}
	if got := f.Stats().Overflows; got != 3 {
		t.Fatalf("feed Overflows = %d, want 3", got)
	}
	// Delivery is in order, so the two accepted events are the oldest.
	if len(took) != 2 || took[0] != 1 || took[1] != 2 {
		t.Fatalf("accepted seqs %v, want [1 2]", took)
	}
}

// TestCursorReadsTheRing: a cursor is woken by every event, reads the
// ring past any position in bounded batches, and reports a position
// the ring has overwritten instead of reading deeper history.
func TestCursorReadsTheRing(t *testing.T) {
	f := New(4, 0)
	c := f.Follow()
	if st := f.Stats(); st.Subscribers != 1 {
		t.Fatalf("Subscribers = %d with one cursor, want 1", st.Subscribers)
	}
	for i := 1; i <= 3; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i), float64(i)))
	}
	select {
	case <-c.Wake():
	default:
		t.Fatal("publishing did not signal the cursor")
	}
	buf := make([]Event, 2)
	if evs, err := c.Read(0, buf); err != nil || len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("Read(0) into 2 slots = %v, %v; want seqs 1, 2", evs, err)
	}
	if evs, err := c.Read(2, buf); err != nil || len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("Read(2) = %v, %v; want seq 3", evs, err)
	}
	if evs, err := c.Read(3, buf); err != nil || len(evs) != 0 {
		t.Fatalf("Read(current) = %v, %v; want nothing", evs, err)
	}
	for i := 4; i <= 10; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i), float64(i)))
	}
	if _, err := c.Read(3, buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Read behind the ring = %v, want ErrTruncated", err)
	}
	c.Close()
	<-c.Wake() // drain the signal left by the publishes above
	f.PublishRemove("n1")
	select {
	case <-c.Wake():
		t.Fatal("a closed cursor was signalled")
	default:
	}
	if st := f.Stats(); st.Subscribers != 0 {
		t.Fatalf("Subscribers = %d after Close, want 0", st.Subscribers)
	}
}

// TestEvictChunking: a sweep of 2×512+17 ids is three events with three
// consecutive sequences — never records sharing one — each carrying its
// own frame.
func TestEvictChunking(t *testing.T) {
	f := New(8, 0)
	f.Tap(func(Event) {}) // someone is listening, so events carry frames
	ids := make([]string, 2*evictChunk+17)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%04d", i)
	}
	if last := f.PublishEvict(ids); last != 3 {
		t.Fatalf("chunked evict last seq = %d, want 3 events", last)
	}
	evs, err := f.Since(0, 0)
	if err != nil || len(evs) != 3 {
		t.Fatalf("Since: %d events, %v; want 3", len(evs), err)
	}
	total := 0
	for i, ev := range evs {
		if ev.Op != OpEvict || ev.Seq != uint64(i+1) || len(ev.Frame()) == 0 {
			t.Fatalf("event %d: op %d seq %d frame %d bytes; want an evict at seq %d with its frame", i, ev.Op, ev.Seq, len(ev.Frame()), i+1)
		}
		total += len(ev.IDs)
	}
	if total != len(ids) {
		t.Fatalf("chunks carry %d ids, want %d", total, len(ids))
	}
}

func TestCloseClosesSubscribersButPublishingContinues(t *testing.T) {
	f := New(8, 0)
	var tapped, sunk, resets int
	f.Tap(func(Event) { tapped++ })
	sub := f.SubscribeFunc(func(*Event) bool { sunk++; return true }, func() { resets++ })
	f.PublishUpsert(upsert("a", 1))
	f.Close()
	if sunk != 1 || resets != 1 {
		t.Fatalf("before and at Close: sink ran %d times, reset %d; want 1, 1", sunk, resets)
	}
	// Publishing after Close still sequences and reaches taps and ring,
	// but no detached sink.
	if got := f.PublishRemove("a"); got != 2 {
		t.Fatalf("seq after Close = %d, want 2", got)
	}
	if tapped != 2 || sunk != 1 {
		t.Fatalf("after Close: tap ran %d times, sink %d; want 2, 1", tapped, sunk)
	}
	if evs, err := f.Since(1, 0); err != nil || len(evs) != 1 {
		t.Fatalf("ring after Close: %v, %v", evs, err)
	}
	lateResets := 0
	late := f.SubscribeFunc(func(*Event) bool { t.Fatal("sink attached to a closed feed"); return true }, func() { lateResets++ })
	if lateResets != 1 {
		t.Fatalf("subscribing to a closed feed reset %d times, want 1 at once", lateResets)
	}
	f.PublishRemove("b")
	late.Close()
	sub.Close()
	sub.Close() // double close is safe
	if st := f.Stats(); st.Subscribers != 0 {
		t.Fatalf("Subscribers = %d after Close, want 0 (taps are not counted)", st.Subscribers)
	}
}

func TestConcurrentPublishSubscribeRace(t *testing.T) {
	f := New(1024, 0)
	var done atomic.Bool
	var pubWg, auxWg sync.WaitGroup
	var tapCount atomic.Uint64
	f.Tap(func(Event) { tapCount.Add(1) })

	const publishers = 4
	const perPublisher = 500
	for p := 0; p < publishers; p++ {
		pubWg.Add(1)
		go func(p int) {
			defer pubWg.Done()
			for i := 0; i < perPublisher; i++ {
				switch i % 3 {
				case 0:
					f.PublishUpsert(upsert(fmt.Sprintf("p%d-%d", p, i), float64(i)))
				case 1:
					f.PublishRemove(fmt.Sprintf("p%d-%d", p, i-1))
				default:
					f.PublishEvict([]string{fmt.Sprintf("p%d-a", p), fmt.Sprintf("p%d-b", p)})
				}
			}
		}(p)
	}
	// Churning sinks and cursors: attach, follow a little, detach.
	monotonic := atomic.Bool{}
	monotonic.Store(true)
	for s := 0; s < 4; s++ {
		auxWg.Add(1)
		go func() {
			defer auxWg.Done()
			buf := make([]Event, 8)
			for !done.Load() {
				prev := f.Seq()
				sub := f.SubscribeFunc(func(ev *Event) bool {
					if ev.Seq <= prev {
						monotonic.Store(false)
					}
					prev = ev.Seq
					return true
				}, func() {})
				c := f.Follow()
				pos := f.Seq()
				for i := 0; i < 32; i++ {
					select {
					case <-c.Wake():
						evs, err := c.Read(pos, buf)
						if err != nil {
							pos = f.Seq()
							continue
						}
						for _, ev := range evs {
							if ev.Seq != pos+1 {
								monotonic.Store(false)
							}
							pos = ev.Seq
						}
					default:
					}
				}
				c.Close()
				sub.Close()
			}
		}()
	}
	// Concurrent Since readers.
	auxWg.Add(1)
	go func() {
		defer auxWg.Done()
		for !done.Load() {
			seq := f.Seq()
			if seq > 10 {
				_, _ = f.Since(seq-10, 0)
			}
		}
	}()

	pubWg.Wait()
	done.Store(true)
	auxWg.Wait()
	if !monotonic.Load() {
		t.Fatal("a sink or cursor observed non-monotonic sequence delivery")
	}

	if got := f.Seq(); got != publishers*perPublisher {
		t.Fatalf("final seq = %d, want %d", got, publishers*perPublisher)
	}
	if got := tapCount.Load(); got != publishers*perPublisher {
		t.Fatalf("tap saw %d events, want %d", got, publishers*perPublisher)
	}
}

// relay publishes ev under the sequence it carries and fails the test
// if the feed refuses it.
func relay(t *testing.T, f *Feed, ev Event) {
	t.Helper()
	if err := f.PublishAt(ev); err != nil {
		t.Fatalf("PublishAt(seq %d, epoch %d): %v", ev.Seq, ev.Epoch, err)
	}
}

func TestPublishAtRelaysUpstreamSequences(t *testing.T) {
	f := New(8, 10)
	relay(t, f, Event{Seq: 11, Op: OpUpsert, Entry: upsert("a", 1)})
	relay(t, f, Event{Seq: 12, Op: OpRemove, ID: "a"})
	if got := f.Seq(); got != 12 {
		t.Fatalf("Seq() = %d, want 12", got)
	}
	evs, err := f.Since(10, -1)
	if err != nil || len(evs) != 2 || evs[0].Seq != 11 || evs[1].Seq != 12 {
		t.Fatalf("Since(10) = %v, %v; want the two relayed events", evs, err)
	}

	// Duplicate delivery is reported, not re-sequenced.
	if err := f.PublishAt(Event{Seq: 12, Op: OpRemove, ID: "a"}); err != ErrDuplicate {
		t.Fatalf("PublishAt(duplicate) = %v, want ErrDuplicate", err)
	}
	if got := f.Seq(); got != 12 {
		t.Fatalf("Seq() after duplicate = %d, want 12", got)
	}
	if evs, _ := f.Since(10, -1); len(evs) != 2 {
		t.Fatalf("duplicate grew the ring: %v", evs)
	}
}

// TestPublishAtRefusesGap: a hole is reported and changes nothing — the
// ring, the sequence and the removal knowledge all stand, so the caller
// can still repair itself (ResetTo/AdvanceTo) from an intact feed.
func TestPublishAtRefusesGap(t *testing.T) {
	f := New(8, 0)
	relay(t, f, Event{Seq: 1, Op: OpRemove, ID: "a"})
	relay(t, f, Event{Seq: 2, Op: OpUpsert, Entry: upsert("b", 2)})
	if err := f.PublishAt(Event{Seq: 10, Op: OpRemove, ID: "c"}); err != ErrGap {
		t.Fatalf("PublishAt across a hole = %v, want ErrGap", err)
	}
	if got := f.Seq(); got != 2 {
		t.Fatalf("Seq() after a refused hole = %d, want 2", got)
	}
	evs, err := f.Since(0, -1)
	if err != nil || len(evs) != 2 || evs[1].Seq != 2 {
		t.Fatalf("Since(0) = %v, %v; want the two dense events", evs, err)
	}
	if removed, ok := removedSince(f, 0); !ok || len(removed) != 1 || removed[0] != "a" {
		t.Fatalf("removedSince(0) = %v, %v; want [a] (the refused remove left no tombstone)", removed, ok)
	}
	relay(t, f, Event{Seq: 3, Op: OpRemove, ID: "c"})
}

// TestResetToWakesSinksAndRestartsSequence: a reset keeps every sink
// attached and tells it — a cursor's next Read reports ErrReset even
// when the sequence did not advance past its position (a re-base at an
// equal or lower seq) — and the stream continues from the reset point.
func TestResetToWakesSinksAndRestartsSequence(t *testing.T) {
	f := New(8, 0)
	relay(t, f, Event{Seq: 1, Op: OpUpsert, Entry: upsert("a", 1)})
	c := f.Follow()
	defer c.Close()
	buf := make([]Event, 8)
	for _, seq := range []uint64{50, 50, 20} {
		f.ResetTo(seq, seq, nil)
		select {
		case <-c.Wake():
		default:
			t.Fatalf("ResetTo(%d) did not signal the cursor", seq)
		}
		if _, err := c.Read(seq, buf); !errors.Is(err, ErrReset) {
			t.Fatalf("Read after ResetTo(%d) = %v, want ErrReset", seq, err)
		}
		if evs, err := c.Read(seq, buf); err != nil || len(evs) != 0 {
			t.Fatalf("second Read after ResetTo(%d) = %v, %v; want nothing: the reset is reported once", seq, evs, err)
		}
		if got := f.Seq(); got != seq {
			t.Fatalf("Seq() after ResetTo = %d, want %d", got, seq)
		}
	}
	if _, err := f.Since(0, -1); err != ErrTruncated {
		t.Fatalf("Since(0) after ResetTo = %v, want ErrTruncated", err)
	}
	// The cursor stays attached: relayed events keep flowing to it.
	relay(t, f, Event{Seq: 21, Op: OpUpsert, Entry: upsert("b", 2)})
	<-c.Wake()
	if evs, err := c.Read(20, buf); err != nil || len(evs) != 1 || evs[0].Seq != 21 {
		t.Fatalf("post-reset Read = %v, %v; want seq 21", evs, err)
	}
}

// removedSince lists the ids of the tombstones past since, oldest
// first, and whether the feed's removal knowledge reaches since at all.
func removedSince(f *Feed, since uint64) ([]string, bool) {
	floor, tombs := f.Tombstones(since)
	if since < floor {
		return nil, false
	}
	ids := []string{}
	for _, t := range tombs {
		ids = append(ids, t.ID)
	}
	return ids, true
}

func TestRemovedSinceTracksTombstones(t *testing.T) {
	f := New(4, 0) // event ring of 4; tombstone ring is 1024 (the minimum)
	f.PublishUpsert(upsert("a", 1))
	f.PublishRemove("a")               // seq 2
	f.PublishEvict([]string{"b", "c"}) // seq 3
	mark := f.Seq()
	f.PublishRemove("d") // seq 4
	// Churn the EVENT ring far past everything above: removal knowledge
	// must survive it — that asymmetry is the whole point of a separate
	// tombstone ring.
	for i := 0; i < 50; i++ {
		f.PublishUpsert(upsert("hb", 2))
	}
	if _, err := f.Since(mark, -1); err != ErrTruncated {
		t.Fatalf("event ring unexpectedly retained seq %d (err %v); test premise broken", mark, err)
	}
	removed, ok := removedSince(f, mark)
	if !ok || len(removed) != 1 || removed[0] != "d" {
		t.Fatalf("removedSince(%d) = %v, %v; want [d], true", mark, removed, ok)
	}
	removed, ok = removedSince(f, 0)
	if !ok || len(removed) != 4 {
		t.Fatalf("removedSince(0) = %v, %v; want a,b,c,d", removed, ok)
	}

	// A second removal of one id is a second tombstone at its own seq;
	// a delta's JSON body lists the id once (TestDeltaSnapshotHTTP).
	f.PublishUpsert(upsert("d", 9))
	again := f.PublishRemove("d")
	if floor, tombs := f.Tombstones(mark); floor > mark || len(tombs) != 2 || tombs[0].ID != "d" || tombs[1] != (Tombstone{Seq: again, ID: "d"}) {
		t.Fatalf("Tombstones(%d) = %d, %v; want d twice, the second at seq %d", mark, floor, tombs, again)
	}

	// Overflowing the tombstone ring surrenders the proof for older
	// resume points but keeps it for newer ones.
	flood := f.Seq()
	for i := 0; i < 1100; i++ {
		f.PublishRemove(fmt.Sprintf("t%04d", i))
	}
	if _, ok = removedSince(f, mark); ok {
		t.Fatal("removedSince claimed completeness past a tombstone overflow")
	}
	if removed, ok = removedSince(f, flood+100); !ok {
		t.Fatal("removedSince lost a range the ring still covers")
	} else if len(removed) != 1000 {
		t.Fatalf("removedSince(flood+100) = %d ids, want 1000", len(removed))
	}
}

func TestResetToClearsTombstones(t *testing.T) {
	f := New(4, 0)
	f.PublishRemove("a")
	f.ResetTo(50, 50, nil)
	if _, ok := removedSince(f, 10); ok {
		t.Fatal("tombstone knowledge survived ResetTo; pre-reset sequences are a different stream")
	}
	relay(t, f, Event{Seq: 51, Op: OpRemove, ID: "b"})
	removed, ok := removedSince(f, 50)
	if !ok || len(removed) != 1 || removed[0] != "b" {
		t.Fatalf("post-reset removedSince = %v, %v; want [b]", removed, ok)
	}
}

func TestAdvanceToPreservesTombstoneDepth(t *testing.T) {
	f := New(4, 0)
	f.PublishRemove("old") // seq 1; tombFloor stays 0
	c := f.Follow()
	defer c.Close()
	// A delta repair jumps the stream to 100, folding the delta's
	// tombstones in at their own seqs; knowledge below the jump must
	// survive (that is the difference from ResetTo).
	f.AdvanceTo(100, []Tombstone{{Seq: 40, ID: "x"}, {Seq: 99, ID: "y"}})
	if _, err := c.Read(1, make([]Event, 4)); !errors.Is(err, ErrReset) {
		t.Fatalf("Read after AdvanceTo = %v, want ErrReset: the cursor's owner must resync", err)
	}
	if _, err := f.Since(0, -1); err != ErrTruncated {
		t.Fatal("event ring survived AdvanceTo")
	}
	removed, ok := removedSince(f, 0)
	if !ok || len(removed) != 3 {
		t.Fatalf("removedSince(0) = %v, %v; want [old x y] with preserved floor", removed, ok)
	}
	removed, ok = removedSince(f, 1)
	if !ok || len(removed) != 2 {
		t.Fatalf("removedSince(1) = %v, %v; want the jump's [x y]", removed, ok)
	}
	removed, ok = removedSince(f, 40)
	if !ok || len(removed) != 1 || removed[0] != "y" {
		t.Fatalf("removedSince(40) = %v, %v; want [y], recorded at its own seq 99", removed, ok)
	}
	if f.Seq() != 100 {
		t.Fatalf("Seq() = %d, want 100", f.Seq())
	}
}

func TestPublishAtFencesStaleEpochs(t *testing.T) {
	f := New(8, 0)
	f.SetEpoch(2)
	relay(t, f, Event{Seq: 1, Epoch: 2, Op: OpUpsert, Entry: upsert("a", 1)})

	// A deposed leader (epoch 1) keeps publishing: every event is
	// rejected, counted, and leaves the stream untouched.
	for _, ev := range []Event{{Seq: 2, Epoch: 1, Op: OpUpsert, Entry: upsert("stale", 9)}, {Seq: 3, Epoch: 1, Op: OpRemove, ID: "a"}} {
		if err := f.PublishAt(ev); err != ErrStaleEpoch {
			t.Fatalf("PublishAt(seq %d, epoch 1) = %v, want ErrStaleEpoch", ev.Seq, err)
		}
	}
	if got := f.Seq(); got != 1 {
		t.Fatalf("Seq() after stale publishes = %d, want 1", got)
	}
	if got := f.RejectedStaleEpoch(); got != 2 {
		t.Fatalf("RejectedStaleEpoch() = %d, want 2", got)
	}
	if evs, err := f.Since(0, -1); err != nil || len(evs) != 1 {
		t.Fatalf("stale events reached the ring: %v, %v", evs, err)
	}

	// Removal knowledge must not record the fenced remove either.
	if removed, ok := removedSince(f, 0); !ok || len(removed) != 0 {
		t.Fatalf("fenced remove left a tombstone: %v, %v", removed, ok)
	}
}

func TestPublishAtAdoptsHigherEpoch(t *testing.T) {
	f := New(8, 0)
	relay(t, f, Event{Seq: 1, Epoch: 1, Op: OpUpsert, Entry: upsert("a", 1)})
	// The relay observes its upstream's promotion mid-stream: the higher
	// epoch is adopted, and the old epoch is fenced from then on.
	relay(t, f, Event{Seq: 2, Epoch: 2, Op: OpUpsert, Entry: upsert("b", 2)})
	if got := f.Epoch(); got != 2 {
		t.Fatalf("Epoch() = %d, want 2 (adopted from the event)", got)
	}
	if err := f.PublishAt(Event{Seq: 3, Epoch: 1, Op: OpUpsert, Entry: upsert("c", 3)}); err != ErrStaleEpoch {
		t.Fatalf("PublishAt(epoch 1 after adopting 2) = %v, want ErrStaleEpoch", err)
	}
	if got := f.Seq(); got != 2 {
		t.Fatalf("Seq() = %d, want 2 (epoch-1 event after adoption must be fenced)", got)
	}
	if got := f.RejectedStaleEpoch(); got != 1 {
		t.Fatalf("RejectedStaleEpoch() = %d, want 1", got)
	}
}

func TestPublishStampsCurrentEpoch(t *testing.T) {
	f := New(8, 0)
	f.SetEpoch(3)
	var epoch uint64
	sub := f.SubscribeFunc(func(ev *Event) bool { epoch = ev.Epoch; return true }, func() {})
	f.PublishUpsert(upsert("a", 1))
	if epoch != 3 {
		t.Fatalf("published event epoch = %d, want 3", epoch)
	}
	evs, err := f.Since(0, -1)
	if err != nil || len(evs) != 1 || evs[0].Epoch != 3 {
		t.Fatalf("ring event epoch = %v, %v; want epoch 3", evs, err)
	}
	if st := f.Stats(); st.Epoch != 3 {
		t.Fatalf("Stats().Epoch = %d, want 3", st.Epoch)
	}
	sub.Close()
}

func TestTombstoneExportSeedRoundTrip(t *testing.T) {
	f := New(8, 0)
	f.PublishUpsert(upsert("a", 1))
	f.PublishRemove("a")               // seq 2
	f.PublishEvict([]string{"b", "c"}) // seq 3
	floor, tombs := f.Tombstones(0)
	if floor != 0 || len(tombs) != 3 {
		t.Fatalf("Tombstones() = floor %d, %v; want floor 0 and 3 tombstones", floor, tombs)
	}

	// A restarted leader installs the captured knowledge in a fresh feed
	// restarted at the captured seq (as recovery does): removedSince
	// must answer exactly as the original would have.
	f2 := New(8, 0)
	f2.ResetTo(3, floor, tombs)
	relay(t, f2, Event{Seq: 4, Op: OpUpsert, Entry: upsert("d", 4)})
	removed, ok := removedSince(f2, 1)
	if !ok || len(removed) != 3 {
		t.Fatalf("seeded removedSince(1) = %v, %v; want [a b c], true", removed, ok)
	}
	removed, ok = removedSince(f2, 2)
	if !ok || len(removed) != 2 {
		t.Fatalf("seeded removedSince(2) = %v, %v; want [b c], true", removed, ok)
	}

	// A non-zero floor survives the round trip and bounds completeness.
	f3 := New(8, 0)
	f3.ResetTo(3, 2, tombs[1:])
	if _, ok := removedSince(f3, 1); ok {
		t.Fatal("seeded feed claimed completeness below its floor")
	}
	if removed, ok := removedSince(f3, 2); !ok || len(removed) != 2 {
		t.Fatalf("seeded removedSince(2) = %v, %v; want [b c], true", removed, ok)
	}
}

// publishStorm runs 4 concurrent publishers mixing back-to-back upserts
// of a three-id set, removes and evictions until each has published at
// least n events or stop is set.
func publishStorm(f *Feed, n int, stop *atomic.Bool) *sync.WaitGroup {
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < n && !stop.Load(); i += 2 {
				id := fmt.Sprintf("n%d", (p+i)%3)
				f.PublishUpsert(upsert(id, float64(i)))
				switch i % 8 {
				case 4:
					f.PublishRemove(id)
				case 6:
					f.PublishEvict([]string{id, "x"})
				default:
					f.PublishUpsert(upsert(id, float64(i)+0.5))
				}
			}
		}(p)
	}
	return &wg
}

// TestDeliveryContract: what a sink observes under concurrent
// publishers is every event after it attached, exactly once and in
// order (prev.Seq+1 == ev.Seq); a refused event is an overflow, counted
// one for one.
func TestDeliveryContract(t *testing.T) {
	f := New(64, 0)
	var prev, got, refused uint64
	dense := true
	accept := f.SubscribeFunc(func(ev *Event) bool {
		dense = dense && ev.Seq == prev+1
		prev = ev.Seq
		got++
		return true
	}, func() {})
	refuse := f.SubscribeFunc(func(*Event) bool { refused++; return false }, func() {})
	publishStorm(f, 600, new(atomic.Bool)).Wait()
	accept.Close()
	refuse.Close()
	total := f.Seq()
	if !dense || got != total {
		t.Errorf("accepting sink: %d of %d events, dense %v", got, total, dense)
	}
	if st := f.Stats(); refused != total || st.Overflows != total {
		t.Errorf("refusing sink saw %d of %d events, Overflows = %d", refused, total, st.Overflows)
	}

	// Teardown racing the storm: once the call that ends delivery
	// returns, the sink never runs again; nothing at or below the attach
	// point is delivered; and a reset is reported exactly once, in
	// sequence, with the stream continuing past it.
	for _, tc := range []struct {
		name   string
		act    func(*Feed, *Subscription)
		resets int
	}{
		{"Subscription.Close", func(_ *Feed, sub *Subscription) { sub.Close() }, 0},
		// The target is past anything the storm publishes between the
		// Seq read and the reset, so the stream never moves backwards.
		{"ResetTo", func(f *Feed, _ *Subscription) { f.ResetTo(f.Seq()+1<<40, 0, nil) }, 1},
		{"Close", func(f *Feed, _ *Subscription) { f.Close() }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New(64, 0)
			var stop atomic.Bool
			wg := publishStorm(f, 1<<30, &stop)
			for round := 0; round < 100; round++ {
				var ended atomic.Bool
				// Events published between this read and the attach are
				// not delivered: the first event, like the first after a
				// reset, need only follow prev.
				prev, reset, resets := f.Seq(), true, 0
				sub := f.SubscribeFunc(func(ev *Event) bool {
					if ended.Load() {
						t.Errorf("round %d: sink ran after delivery ended", round)
					}
					if ev.Seq <= prev || (!reset && ev.Seq != prev+1) {
						t.Errorf("round %d: event %d after %d (reset %v)", round, ev.Seq, prev, reset)
					}
					prev, reset = ev.Seq, false
					return true
				}, func() { reset, resets = true, resets+1 })
				tc.act(f, sub)
				sub.Close()
				ended.Store(true)
				if round == 0 && resets != tc.resets {
					t.Fatalf("%d resets, want %d", resets, tc.resets)
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestPublishEncodesOnce: an event published while any sink is attached
// carries its frame; the ring copy, the tap's copy and the copy a sink
// is handed share the same bytes; a relay (PublishAt) keeps whatever the
// event arrived with — it never encodes; and with nothing attached
// publish pays for no encoding at all.
func TestPublishEncodesOnce(t *testing.T) {
	quiet := New(16, 0)
	quiet.PublishUpsert(upsert("a", 1))
	if evs, err := quiet.Since(0, 0); err != nil || len(evs) != 1 || evs[0].Frame() != nil {
		t.Fatalf("event published with nobody listening: %+v, %v; want it without a frame", evs, err)
	}
	c := quiet.Follow()
	defer c.Close()
	quiet.PublishUpsert(upsert("b", 2))
	if evs, err := quiet.Since(1, 0); err != nil || len(evs) != 1 || len(evs[0].Frame()) == 0 {
		t.Fatalf("event published to a cursor carries no frame: %+v, %v", evs, err)
	}

	f := New(16, 0)
	var tapped, sunk []Event
	f.Tap(func(ev Event) { tapped = append(tapped, ev) })
	f.PublishUpsert(upsert("a", 1))
	sub := f.SubscribeFunc(func(ev *Event) bool { sunk = append(sunk, *ev); return true }, func() {})
	defer sub.Close()
	f.PublishRemove("a")
	evs, err := f.Since(0, 0)
	if err != nil || len(evs) != 2 || len(tapped) != 2 || len(sunk) != 1 {
		t.Fatalf("Since: %v %v (tapped %d, sunk %d)", evs, err, len(tapped), len(sunk))
	}
	for i, ev := range evs {
		frame := ev.Frame()
		if len(frame) == 0 || &frame[0] != &tapped[i].Frame()[0] {
			t.Fatalf("event %d: ring frame %x, tap frame %x: not one shared encoding", i, frame, tapped[i].Frame())
		}
		back, n, err := wire.DecodeEvent(frame)
		if err != nil || n != len(frame) || back.Seq != ev.Seq || back.Op != ev.Op || back.PubNs != ev.PubNs || back.Entry.ID != ev.Entry.ID || back.ID != ev.ID {
			t.Fatalf("event %d: frame decodes to %+v (n=%d err=%v), want %+v", i, back, n, err, ev)
		}
	}
	if evs[0].Entry.Seq != 1 {
		t.Fatalf("published upsert's entry seq = %d, want the event's", evs[0].Entry.Seq)
	}
	if &sunk[0].Frame()[0] != &evs[1].Frame()[0] {
		t.Fatal("ring copy and the sink's copy do not share one frame")
	}

	relay := New(16, 0)
	for _, ev := range []Event{evs[0], {Seq: 2, Op: OpRemove, ID: "hand-built"}} {
		if err := relay.PublishAt(ev); err != nil {
			t.Fatalf("relay PublishAt(%d): %v", ev.Seq, err)
		}
	}
	got, err := relay.Since(0, 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("relay Since: %v %v", got, err)
	}
	if &got[0].Frame()[0] != &evs[0].Frame()[0] {
		t.Fatal("relay re-encoded an event that arrived with its frame")
	}
	if got[1].Frame() != nil {
		t.Fatal("relay encoded an event that arrived without a frame")
	}
}

// TestSlabRolloverKeepsEveryFrame publishes upserts, removes and
// evictions (one eviction frame larger than a whole slab chunk) until
// the publish slab has started several chunks, then checks that every
// ring event's frame still decodes to that event: no frame was written
// over or cut when a chunk filled.
func TestSlabRolloverKeepsEveryFrame(t *testing.T) {
	const ring = 4096
	f := New(ring, 0)
	var framed int
	f.Tap(func(Event) { framed++ }) // someone is listening, so events carry frames
	long := func(prefix string, i int) string { return fmt.Sprintf("%s-%0130d", prefix, i) }
	var bytes int
	for i := 0; f.Seq() < ring-8; i++ {
		switch {
		case i%97 == 96:
			ids := make([]string, evictChunk)
			for j := range ids {
				ids[j] = long("gone", i*evictChunk+j)
			}
			f.PublishEvict(ids)
		case i%5 == 4:
			f.PublishRemove(long("node", i-1))
		default:
			f.PublishUpsert(upsert(long("node", i), float64(i)))
		}
	}
	evs, err := f.Since(0, 0)
	if err != nil || len(evs) != int(f.Seq()) || framed != len(evs) {
		t.Fatalf("Since: %d events (tapped %d), %v; want %d", len(evs), framed, err, f.Seq())
	}
	for i, ev := range evs {
		frame := ev.Frame()
		bytes += len(frame)
		back, n, err := wire.DecodeEvent(frame)
		if err != nil || n != len(frame) || len(frame) != cap(frame) {
			t.Fatalf("event %d: frame of %d bytes (cap %d) decodes %d: %v", i, len(frame), cap(frame), n, err)
		}
		if back.Seq != ev.Seq || back.Op != ev.Op || back.PubNs != ev.PubNs || back.Epoch != ev.Epoch ||
			back.ID != ev.ID || !slices.Equal(back.IDs, ev.IDs) || back.Entry.ID != ev.Entry.ID ||
			!back.Entry.Coord.Equal(ev.Entry.Coord) || back.Entry.Seq != ev.Entry.Seq {
			t.Fatalf("event %d: frame decodes to %+v, want %+v", i, back, ev)
		}
	}
	if bytes < 3*(64<<10) {
		t.Fatalf("published %d frame bytes: fewer than three slab chunks, no rollover tested", bytes)
	}
}
