// Package bheap provides the bounded max-heap used for k-best selection
// by the spatial index and the one-shot Nearest API: keep the best k
// elements seen so far under a total order, evicting the worst in
// O(log k) when a better candidate arrives.
package bheap

// Heap is a bounded max-heap under the given order: the root is the
// element that sorts last among the kept ones, so it is the one a
// better candidate displaces. The zero value is not usable; call New.
type Heap[T any] struct {
	// before reports whether a sorts before b. It must be a strict
	// total order for deterministic results.
	before func(a, b T) bool
	cap    int
	items  []T
}

// New builds a heap keeping the cap best elements under before.
func New[T any](cap int, before func(a, b T) bool) *Heap[T] {
	return &Heap[T]{before: before, cap: cap}
}

// Reset empties the heap and rebounds it to keep cap elements, keeping
// the backing array so a pooled heap reaches a steady state where Offer
// never allocates. The order function is unchanged.
func (h *Heap[T]) Reset(cap int) {
	h.cap = cap
	h.items = h.items[:0]
}

// Len reports how many elements are held.
func (h *Heap[T]) Len() int { return len(h.items) }

// Full reports whether the heap holds cap elements.
func (h *Heap[T]) Full() bool { return len(h.items) == h.cap }

// Worst returns the element that sorts last among those held. It must
// not be called on an empty heap.
func (h *Heap[T]) Worst() T { return h.items[0] }

// Items returns the held elements in heap order (not sorted). The slice
// is the heap's backing store; callers take ownership only once they
// stop calling Offer.
func (h *Heap[T]) Items() []T { return h.items }

// Offer inserts x if the heap has room or x sorts before the current
// worst element. Sifting moves a hole rather than swapping: one copy of
// an element per level instead of three.
func (h *Heap[T]) Offer(x T) {
	if h.cap == 0 {
		return
	}
	if len(h.items) < h.cap {
		h.items = append(h.items, x)
		h.siftUp(len(h.items)-1, x)
		return
	}
	if !h.before(x, h.items[0]) {
		return
	}
	h.siftDown(x)
}

// siftUp places x, which belongs at or above the hole at i.
func (h *Heap[T]) siftUp(i int, x T) {
	for i > 0 {
		p := (i - 1) / 2
		// Stop when the parent sorts after (or equal to) x.
		if !h.before(h.items[p], x) {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = x
}

// siftDown replaces the root with x.
func (h *Heap[T]) siftDown(x T) {
	i, n := 0, len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.before(h.items[c], h.items[r]) {
			c = r
		}
		// Stop when x sorts after (or equal to) the later child.
		if !h.before(x, h.items[c]) {
			break
		}
		h.items[i] = h.items[c]
		i = c
	}
	h.items[i] = x
}
