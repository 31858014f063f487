package changefeed

// Subscriber delivery is an asynchronous hand-off: the publish path only
// appends the event to a pending queue, and a background flusher swaps
// the queue out and offers each event to every subscriber's buffer
// outside f.mu, so a wide fan-out never stalls publishers.
//
// What a subscriber may observe: every event published after its
// JoinSeq, in sequence order, prev.Seq+1 == ev.Seq — or a gap, which is
// always loss: a full subscriber buffer at delivery time, counted in
// Overflows/Dropped, and repaired by resuming from history. The pending
// queue itself never drops: when it reaches pendMax the publisher drains
// it inline, paying the fan-out itself, so a subscriber with room for
// everything loses nothing.
//
// Taps are untouched: synchronous, lossless, inline under the feed lock.

// pendMax caps the pending queue; at the cap the publisher drains it
// inline instead of letting it grow without bound ahead of the flusher.
const pendMax = 1024

// enqueueLocked appends ev to the pending queue and wakes the flusher.
// It reports whether the queue is at capacity, in which case the caller
// must drain it inline (Flush) after releasing f.mu. The caller holds
// f.mu.
//
//nc:locked(mu)
func (f *Feed) enqueueLocked(ev Event) (full bool) {
	if f.closed || len(f.subs) == 0 {
		return false
	}
	f.pend = append(f.pend, ev)
	if len(f.pend) >= pendMax {
		return true
	}
	select {
	case f.wake <- struct{}{}:
	default:
	}
	return false
}

// swapPendLocked detaches the pending queue for delivery, leaving the
// previous batch's backing array in place for reuse. The caller holds
// both f.deliverMu and f.mu.
//
//nc:locked(mu)
func (f *Feed) swapPendLocked() []Event {
	batch := f.pend
	f.pend, f.pendSpare = f.pendSpare[:0], batch
	return batch
}

// deliverBatch offers each event to the given subscribers without
// blocking, then zeroes the batch so delivered events (ids, coordinates,
// frames) are collectable before the backing array is reused. The
// caller holds f.deliverMu (delivery order across batches is what it
// serializes); f.mu may or may not be held.
func (f *Feed) deliverBatch(batch []Event, subs []*Subscription) {
	for i := range batch {
		// The slot is exclusively owned here (swapped out of pend under
		// f.mu), so sinks get it by pointer — no per-subscriber copy.
		ev := &batch[i]
		for _, sub := range subs {
			var ok bool
			if sub.sink != nil {
				ok = sub.sink(ev)
			} else {
				select {
				case sub.ch <- *ev:
					ok = true
				default:
				}
			}
			if !ok {
				sub.dropped.Add(1)
				f.overflows.Add(1)
			}
		}
	}
	clear(batch)
}

// Flush drains the pending queue once, delivering outside f.mu, and
// reports whether anything was pending. The flusher and a publisher at
// pendMax call it; tests call it to make delivery deterministic.
func (f *Feed) Flush() bool {
	f.deliverMu.Lock()
	defer f.deliverMu.Unlock()
	f.mu.Lock()
	batch := f.swapPendLocked()
	subs := f.subsList
	f.mu.Unlock()
	f.deliverBatch(batch, subs)
	return len(batch) > 0
}

// flushLoop is the background flusher: woken by the first pending event
// after an idle period, it drains batches until the queue runs dry.
func (f *Feed) flushLoop() {
	for {
		select {
		case <-f.quit:
			return
		case <-f.wake:
		}
		for f.Flush() {
		}
	}
}

// drainPendLocked delivers everything pending while holding both locks
// — the inline variant used by Subscribe/Close, where the next action
// (attaching or closing a subscriber) must see an empty queue. The
// caller holds f.deliverMu and f.mu.
//
//nc:locked(mu)
func (f *Feed) drainPendLocked() {
	f.deliverBatch(f.swapPendLocked(), f.subsList)
}

// rebuildSubsLocked refreshes the copy-on-write subscriber list the
// flusher delivers from outside f.mu. The caller holds f.mu.
//
//nc:locked(mu)
func (f *Feed) rebuildSubsLocked() {
	if len(f.subs) == 0 {
		f.subsList = nil
		return
	}
	list := make([]*Subscription, 0, len(f.subs))
	for sub := range f.subs {
		list = append(list, sub)
	}
	f.subsList = list
}
