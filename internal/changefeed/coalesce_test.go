package changefeed

import (
	"fmt"
	"netcoord/internal/wire"
	"testing"
	"time"
)

// stall blocks the background flusher so a test can stage a precise
// pending-queue shape, returning a release func. Delivery paths all
// serialize on deliverMu, so holding it freezes fan-out without
// touching the publish path.
func stall(f *Feed) func() {
	f.deliverMu.Lock()
	return f.deliverMu.Unlock
}

func TestCoalesceCollapsesHeartbeatStorm(t *testing.T) {
	f := New(64, 0)
	sub := f.Subscribe(16)
	defer sub.Close()

	release := stall(f)
	for i := 0; i < 5; i++ {
		f.PublishUpsert(upsert("a", float64(i)))
	}
	f.PublishUpsert(upsert("b", 9))
	release()
	f.Flush()

	// Four of the five "a" upserts were superseded while pending; the
	// survivor carries the final coordinate and labels the gap.
	ev := <-sub.C()
	if ev.Seq != 5 || ev.Entry.ID != "a" || ev.Coalesced != 4 {
		t.Fatalf("survivor = seq %d id %q coalesced %d, want seq 5 a 4", ev.Seq, ev.Entry.ID, ev.Coalesced)
	}
	if ev.Entry.Coord.Vec[0] != 4 {
		t.Fatalf("survivor carries coord %v, want the newest (4)", ev.Entry.Coord.Vec)
	}
	ev = <-sub.C()
	if ev.Seq != 6 || ev.Entry.ID != "b" || ev.Coalesced != 0 {
		t.Fatalf("next = seq %d id %q coalesced %d, want seq 6 b 0", ev.Seq, ev.Entry.ID, ev.Coalesced)
	}
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d; coalescing must not count as loss", got)
	}
	st := f.Stats()
	if st.Coalesced != 4 || st.Overflows != 0 {
		t.Fatalf("stats coalesced=%d overflows=%d, want 4 and 0", st.Coalesced, st.Overflows)
	}
}

// TestCoalesceGapArithmetic is the consumer-side contract: walking the
// delivered stream, prev.Seq + 1 + ev.Coalesced == ev.Seq at every
// step, so labelled gaps are provably benign.
func TestCoalesceGapArithmetic(t *testing.T) {
	f := New(256, 0)
	sub := f.Subscribe(128)
	defer sub.Close()

	release := stall(f)
	for i := 0; i < 30; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i%3), float64(i)))
	}
	f.PublishRemove("n1")
	for i := 0; i < 10; i++ {
		f.PublishUpsert(upsert("n0", float64(100+i)))
	}
	release()
	f.Flush()
	f.Close()

	var prev uint64
	var got int
	for ev := range sub.C() {
		if prev+1+ev.Coalesced != ev.Seq {
			t.Fatalf("unexplained gap: prev=%d coalesced=%d seq=%d", prev, ev.Coalesced, ev.Seq)
		}
		prev = ev.Seq
		got++
	}
	if prev != 41 {
		t.Fatalf("last delivered seq = %d, want 41", prev)
	}
	if got >= 41 {
		t.Fatalf("delivered %d events; storm should have collapsed some", got)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", sub.Dropped())
	}
}

// TestCoalesceNeverSkipsRemovals: removes and evicts are never
// collapsed, and an upsert collapse across an intervening remove still
// converges to the same final state as synchronous delivery.
func TestCoalesceNeverSkipsRemovals(t *testing.T) {
	f := New(64, 0)
	sub := f.Subscribe(32)
	defer sub.Close()

	release := stall(f)
	f.PublishUpsert(upsert("a", 1)) // seq 1: superseded by seq 3
	f.PublishRemove("a")            // seq 2: must survive
	f.PublishUpsert(upsert("a", 3)) // seq 3: survivor
	f.PublishEvict([]string{"x"})   // seq 4: must survive
	release()
	f.Flush()

	state := map[string]bool{}
	want := []struct {
		seq uint64
		op  byte
	}{{2, OpRemove}, {3, OpUpsert}, {4, OpEvict}}
	var prev uint64
	for _, w := range want {
		select {
		case ev := <-sub.C():
			if ev.Seq != w.seq || ev.Op != w.op {
				t.Fatalf("got seq %d op %d, want seq %d op %d", ev.Seq, ev.Op, w.seq, w.op)
			}
			if prev+1+ev.Coalesced != ev.Seq {
				t.Fatalf("unexplained gap at seq %d (coalesced=%d, prev=%d)", ev.Seq, ev.Coalesced, prev)
			}
			prev = ev.Seq
			switch ev.Op {
			case OpUpsert:
				state[ev.Entry.ID] = true
			case OpRemove:
				delete(state, ev.ID)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for seq %d", w.seq)
		}
	}
	if !state["a"] {
		t.Fatal("final state lost the re-upsert of a")
	}
}

// TestDistinctBurstIsLosslessWithRoomyBuffer: a burst of distinct ids
// has nothing to collapse, so when the pending queue fills the
// publisher drains it inline instead of dropping — a subscriber with
// room for everything still sees every event, exactly like the old
// synchronous path.
func TestDistinctBurstIsLosslessWithRoomyBuffer(t *testing.T) {
	f := New(1<<13, 0)
	n := 3 * coalesceLive
	sub := f.Subscribe(2 * n)
	defer sub.Close()

	for i := 0; i < n; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("node-%05d", i), float64(i)))
	}
	f.Flush()

	if got := sub.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0 (distinct burst must not shed)", got)
	}
	st := f.Stats()
	if st.Overflows != 0 || st.Coalesced != 0 {
		t.Fatalf("overflows=%d coalesced=%d, want 0 and 0", st.Overflows, st.Coalesced)
	}
	var prev uint64
	for i := 0; i < n; i++ {
		ev := <-sub.C()
		if ev.Seq != prev+1 || ev.Coalesced != 0 {
			t.Fatalf("event %d: seq=%d coalesced=%d after %d; want dense", i, ev.Seq, ev.Coalesced, prev)
		}
		prev = ev.Seq
	}
}

// TestCoalesceCompactionKeepsLabels: drive the pending queue past its
// compaction threshold while stalled and confirm labels still add up.
func TestCoalesceCompactionKeepsLabels(t *testing.T) {
	f := New(1<<14, 0)
	sub := f.Subscribe(1 << 12)
	defer sub.Close()

	release := stall(f)
	total := pendCompactAt + 500
	for i := 0; i < total; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("n%d", i%64), float64(i)))
	}
	release()
	f.Flush()
	f.Close()

	var prev uint64
	count := 0
	for ev := range sub.C() {
		if prev+1+ev.Coalesced != ev.Seq {
			t.Fatalf("unexplained gap after compaction: prev=%d coalesced=%d seq=%d", prev, ev.Coalesced, ev.Seq)
		}
		prev = ev.Seq
		count++
	}
	if prev != uint64(total) {
		t.Fatalf("last seq %d, want %d", prev, total)
	}
	if count != 64 {
		t.Fatalf("delivered %d survivors, want 64 (one per id)", count)
	}
	if st := f.Stats(); st.Coalesced != uint64(total-64) {
		t.Fatalf("stats.Coalesced = %d, want %d", st.Coalesced, total-64)
	}
}

// TestPublishEncodesOnce: an event published while anyone listens (a
// tap or a subscriber) carries its frame; the ring copy, the tap's copy
// and the delivered copy share the same bytes; a relay (PublishAt)
// keeps whatever the event arrived with — it never encodes; and with
// nobody listening publish pays for no encoding at all.
func TestPublishEncodesOnce(t *testing.T) {
	quiet := New(16, 0)
	quiet.PublishUpsert(upsert("a", 1))
	if evs, err := quiet.Since(0, 0); err != nil || len(evs) != 1 || evs[0].Frame() != nil {
		t.Fatalf("event published with nobody listening: %+v, %v; want it without a frame", evs, err)
	}
	sub0 := quiet.Subscribe(1)
	defer sub0.Close()
	quiet.PublishUpsert(upsert("b", 2))
	if evs, err := quiet.Since(1, 0); err != nil || len(evs) != 1 || len(evs[0].Frame()) == 0 {
		t.Fatalf("event published to a subscriber carries no frame: %+v, %v", evs, err)
	}

	f := New(16, 0)
	var tapped []Event
	f.Tap(func(ev Event) { tapped = append(tapped, ev) })
	f.PublishUpsert(upsert("a", 1))
	sub := f.Subscribe(4)
	defer sub.Close()
	f.PublishRemove("a")
	f.Flush()
	evs, err := f.Since(0, 0)
	if err != nil || len(evs) != 2 || len(tapped) != 2 {
		t.Fatalf("Since: %v %v (tapped %d)", evs, err, len(tapped))
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
	if got := <-sub.C(); &got.Frame()[0] != &evs[1].Frame()[0] {
		t.Fatal("ring copy and delivered copy do not share one frame")
	}

	relay := New(16, 0)
	relay.PublishAt(evs[0])
	relay.PublishAt(Event{Seq: 2, Op: OpRemove, ID: "hand-built"})
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
