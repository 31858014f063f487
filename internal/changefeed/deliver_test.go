package changefeed

import (
	"fmt"
	"netcoord/internal/wire"
	"sync"
	"sync/atomic"
	"testing"
)

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

// TestDeliveryContract: what a subscriber observes under concurrent
// publishers is every event after its JoinSeq exactly once and in
// order, or loss counted in Dropped/Overflows — never a silent gap.
func TestDeliveryContract(t *testing.T) {
	subs := []struct {
		name   string
		buffer int
		sub    *Subscription
		got    uint64
	}{
		{name: "roomy", buffer: 4096},
		{name: "one slot", buffer: 1},
	}
	f := New(64, 0)
	var readers sync.WaitGroup
	for i := range subs {
		s := &subs[i]
		s.sub = f.Subscribe(s.buffer)
		readers.Add(1)
		go func() {
			defer readers.Done()
			prev := s.sub.JoinSeq()
			for ev := range s.sub.C() {
				if ev.Seq <= prev || (s.buffer > 1 && ev.Seq != prev+1) {
					t.Errorf("%s: event %d after %d", s.name, ev.Seq, prev)
				}
				prev = ev.Seq
				s.got++
			}
		}()
	}
	publishStorm(f, 600, new(atomic.Bool)).Wait()
	f.Close() // flushes what is pending, then closes every channel
	readers.Wait()
	total := f.Seq()
	for _, s := range subs {
		wantDropped := total - s.got
		if s.sub.Dropped() != wantDropped || (s.buffer > 1 && s.got != total) {
			t.Errorf("%s: received %d of %d, Dropped = %d, want %d", s.name, s.got, total, s.sub.Dropped(), wantDropped)
		}
	}
	if got, want := f.Stats().Overflows, subs[1].sub.Dropped(); got != want || want == 0 {
		t.Errorf("Overflows = %d, want the one-slot subscriber's Dropped (%d, non-zero)", got, want)
	}

	// Teardown racing the storm: a closed channel is never sent on (a
	// panic) and nothing at or below a later JoinSeq is delivered.
	for _, tc := range []struct {
		name string
		act  func(*Feed, *Subscription)
	}{
		{"Subscription.Close", func(_ *Feed, sub *Subscription) { sub.Close() }},
		{"ResetTo", func(f *Feed, _ *Subscription) { f.ResetTo(f.Seq() + 1000) }},
		{"Close", func(f *Feed, _ *Subscription) { f.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New(64, 0)
			var stop atomic.Bool
			wg := publishStorm(f, 1<<30, &stop)
			for round := 0; round < 100; round++ {
				sub := f.Subscribe(4)
				prev := sub.JoinSeq()
				tc.act(f, sub)
				for ev := range sub.C() {
					if ev.Seq <= prev {
						t.Fatalf("round %d: event %d at or below %d (JoinSeq %d)", round, ev.Seq, prev, sub.JoinSeq())
					}
					prev = ev.Seq
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestDistinctBurstIsLosslessWithRoomyBuffer: when a burst fills the
// pending queue the publisher drains it inline instead of dropping — a
// subscriber with room for everything still sees every event.
func TestDistinctBurstIsLosslessWithRoomyBuffer(t *testing.T) {
	f := New(1<<13, 0)
	n := 3 * pendMax
	sub := f.Subscribe(2 * n)
	defer sub.Close()

	for i := 0; i < n; i++ {
		f.PublishUpsert(upsert(fmt.Sprintf("node-%05d", i), float64(i)))
	}
	f.Flush()

	if got := sub.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0 (distinct burst must not shed)", got)
	}
	if got := f.Stats().Overflows; got != 0 {
		t.Fatalf("Overflows = %d, want 0", got)
	}
	var prev uint64
	for i := 0; i < n; i++ {
		ev := <-sub.C()
		if ev.Seq != prev+1 {
			t.Fatalf("event %d: seq=%d after %d; want dense", i, ev.Seq, prev)
		}
		prev = ev.Seq
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
