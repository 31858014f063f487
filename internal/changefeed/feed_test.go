package changefeed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"netcoord/internal/coord"
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
}

func TestSubscribeFollowsAndJoinSeqSplitsHistory(t *testing.T) {
	f := New(16, 0)
	f.PublishUpsert(upsert("a", 1))
	sub := f.Subscribe(8)
	defer sub.Close()
	if sub.JoinSeq() != 1 {
		t.Fatalf("JoinSeq = %d, want 1", sub.JoinSeq())
	}
	f.PublishRemove("a")
	ev := <-sub.C()
	if ev.Seq != 2 || ev.Op != OpRemove {
		t.Fatalf("subscriber got %+v, want remove seq 2", ev)
	}
	// History at or before JoinSeq comes from Since — no overlap, no gap.
	hist, err := f.Since(0, int(sub.JoinSeq()))
	if err != nil || len(hist) != 1 || hist[0].Seq != 1 {
		t.Fatalf("history = %v, %v; want seq 1 only", hist, err)
	}
}

func TestSlowSubscriberDropsAndCounts(t *testing.T) {
	f := New(16, 0)
	sub := f.Subscribe(2)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i), float64(i)))
	}
	// Delivery is asynchronous; drain the pending queue so the drop
	// accounting below is deterministic.
	f.Flush()
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if got := f.Stats().Overflows; got != 3 {
		t.Fatalf("feed Overflows = %d, want 3", got)
	}
	// The two buffered events are the oldest two: delivery is in order,
	// losses are at the tail.
	if ev := <-sub.C(); ev.Seq != 1 {
		t.Fatalf("first buffered seq = %d, want 1", ev.Seq)
	}
	if ev := <-sub.C(); ev.Seq != 2 {
		t.Fatalf("second buffered seq = %d, want 2", ev.Seq)
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
	sub := f.Subscribe(4)
	f.PublishUpsert(upsert("a", 1))
	f.Close()
	// Buffered event still readable, then the channel closes.
	if ev, ok := <-sub.C(); !ok || ev.Seq != 1 {
		t.Fatalf("buffered event after Close = %+v, %v", ev, ok)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after feed Close")
	}
	// Publishing after Close still sequences and reaches taps/ring.
	if got := f.PublishRemove("a"); got != 2 {
		t.Fatalf("seq after Close = %d, want 2", got)
	}
	late := f.Subscribe(1)
	if _, ok := <-late.C(); ok {
		t.Fatal("subscription on a closed feed should be closed immediately")
	}
	sub.Close() // double close is safe
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
	// Churning subscribers: attach, read a little, detach.
	monotonic := atomic.Bool{}
	monotonic.Store(true)
	for s := 0; s < 4; s++ {
		auxWg.Add(1)
		go func() {
			defer auxWg.Done()
			for !done.Load() {
				sub := f.Subscribe(16)
				prev := sub.JoinSeq()
				for i := 0; i < 32; i++ {
					select {
					case ev, ok := <-sub.C():
						if !ok {
							sub.Close()
							return
						}
						if ev.Seq <= prev {
							monotonic.Store(false)
						}
						prev = ev.Seq
					default:
					}
				}
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
		t.Fatal("a subscriber observed non-monotonic sequence delivery")
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
	if removed, ok := f.RemovedSince(0); !ok || len(removed) != 1 || removed[0] != "a" {
		t.Fatalf("RemovedSince(0) = %v, %v; want [a] (the refused remove left no tombstone)", removed, ok)
	}
	relay(t, f, Event{Seq: 3, Op: OpRemove, ID: "c"})
}

func TestResetToClosesSubscribersAndRestartsSequence(t *testing.T) {
	f := New(8, 0)
	relay(t, f, Event{Seq: 1, Op: OpUpsert, Entry: upsert("a", 1)})
	sub := f.Subscribe(4)
	f.ResetTo(50)
	if _, open := <-sub.C(); open {
		t.Fatal("subscription survived ResetTo; consumers must resync")
	}
	if got := f.Seq(); got != 50 {
		t.Fatalf("Seq() after ResetTo = %d, want 50", got)
	}
	if _, err := f.Since(0, -1); err != ErrTruncated {
		t.Fatalf("Since(0) after ResetTo = %v, want ErrTruncated", err)
	}
	// The feed stays usable: new subscribers and relayed events work.
	sub2 := f.Subscribe(4)
	relay(t, f, Event{Seq: 51, Op: OpUpsert, Entry: upsert("b", 2)})
	if ev := <-sub2.C(); ev.Seq != 51 {
		t.Fatalf("post-reset event seq = %d, want 51", ev.Seq)
	}
	sub.Close() // closing the dead subscription must not panic
	sub2.Close()
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
	removed, ok := f.RemovedSince(mark)
	if !ok || len(removed) != 1 || removed[0] != "d" {
		t.Fatalf("RemovedSince(%d) = %v, %v; want [d], true", mark, removed, ok)
	}
	removed, ok = f.RemovedSince(0)
	if !ok || len(removed) != 4 {
		t.Fatalf("RemovedSince(0) = %v, %v; want a,b,c,d", removed, ok)
	}

	// Duplicate removals of one id dedupe.
	f.PublishUpsert(upsert("d", 9))
	f.PublishRemove("d")
	if removed, ok = f.RemovedSince(mark); !ok || len(removed) != 1 {
		t.Fatalf("deduped RemovedSince = %v, %v; want just d once", removed, ok)
	}

	// Overflowing the tombstone ring surrenders the proof for older
	// resume points but keeps it for newer ones.
	flood := f.Seq()
	for i := 0; i < 1100; i++ {
		f.PublishRemove(fmt.Sprintf("t%04d", i))
	}
	if _, ok = f.RemovedSince(mark); ok {
		t.Fatal("RemovedSince claimed completeness past a tombstone overflow")
	}
	if removed, ok = f.RemovedSince(flood + 100); !ok {
		t.Fatal("RemovedSince lost a range the ring still covers")
	} else if len(removed) != 1000 {
		t.Fatalf("RemovedSince(flood+100) = %d ids, want 1000", len(removed))
	}
}

func TestResetToClearsTombstones(t *testing.T) {
	f := New(4, 0)
	f.PublishRemove("a")
	f.ResetTo(50)
	if _, ok := f.RemovedSince(10); ok {
		t.Fatal("tombstone knowledge survived ResetTo; pre-reset sequences are a different stream")
	}
	relay(t, f, Event{Seq: 51, Op: OpRemove, ID: "b"})
	removed, ok := f.RemovedSince(50)
	if !ok || len(removed) != 1 || removed[0] != "b" {
		t.Fatalf("post-reset RemovedSince = %v, %v; want [b]", removed, ok)
	}
}

func TestAdvanceToPreservesTombstoneDepth(t *testing.T) {
	f := New(4, 0)
	f.PublishRemove("old") // seq 1; tombFloor stays 0
	sub := f.Subscribe(4)
	// A delta repair jumps the stream to 100, folding the delta's
	// removed ids in at the jump seq; knowledge below the jump must
	// survive (that is the difference from ResetTo).
	f.AdvanceTo(100, []string{"x", "y"})
	if _, open := <-sub.C(); open {
		t.Fatal("subscription survived AdvanceTo; consumers must resync")
	}
	if _, err := f.Since(0, -1); err != ErrTruncated {
		t.Fatal("event ring survived AdvanceTo")
	}
	removed, ok := f.RemovedSince(0)
	if !ok || len(removed) != 3 {
		t.Fatalf("RemovedSince(0) = %v, %v; want [old x y] with preserved floor", removed, ok)
	}
	removed, ok = f.RemovedSince(1)
	if !ok || len(removed) != 2 {
		t.Fatalf("RemovedSince(1) = %v, %v; want the jump's [x y]", removed, ok)
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
	if removed, ok := f.RemovedSince(0); !ok || len(removed) != 0 {
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
	sub := f.Subscribe(4)
	f.PublishUpsert(upsert("a", 1))
	ev := <-sub.C()
	if ev.Epoch != 3 {
		t.Fatalf("published event epoch = %d, want 3", ev.Epoch)
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
	floor, tombs := f.Tombstones()
	if floor != 0 || len(tombs) != 3 {
		t.Fatalf("Tombstones() = floor %d, %v; want floor 0 and 3 tombstones", floor, tombs)
	}

	// A restarted leader seeds the captured knowledge into a fresh feed
	// started at the captured seq (as recovery does): RemovedSince must
	// answer exactly as the original would have.
	f2 := New(8, 3)
	f2.SeedTombstones(floor, tombs)
	relay(t, f2, Event{Seq: 4, Op: OpUpsert, Entry: upsert("d", 4)})
	removed, ok := f2.RemovedSince(1)
	if !ok || len(removed) != 3 {
		t.Fatalf("seeded RemovedSince(1) = %v, %v; want [a b c], true", removed, ok)
	}
	removed, ok = f2.RemovedSince(2)
	if !ok || len(removed) != 2 {
		t.Fatalf("seeded RemovedSince(2) = %v, %v; want [b c], true", removed, ok)
	}

	// A non-zero floor survives the round trip and bounds completeness.
	f3 := New(8, 3)
	f3.SeedTombstones(2, tombs[1:])
	if _, ok := f3.RemovedSince(1); ok {
		t.Fatal("seeded feed claimed completeness below its floor")
	}
	if removed, ok := f3.RemovedSince(2); !ok || len(removed) != 2 {
		t.Fatalf("seeded RemovedSince(2) = %v, %v; want [b c], true", removed, ok)
	}
}
