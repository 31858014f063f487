package filter

// Bank owns one filter per remote peer. Nodes keep a Bank so that each
// link's observation stream is filtered independently — the whole point of
// the MP filter is that outlier structure is per-link, so a shared filter
// (or a global threshold) cannot work.
//
// The key type is generic: the live node keys peers by address string,
// netcoord.Client by peer id. The simulator, whose peers are the node ids
// 0..n-1, keeps a Dense table instead and pays no map lookup per sample.
//
// Bank is not safe for concurrent use; the owning node serializes access.
type Bank[K comparable] struct {
	factory Factory
	filters map[K]Filter
	// maxPeers bounds memory on gossip-heavy deployments; 0 means
	// unbounded. When full, unknown peers' samples pass through
	// unfiltered (they still produce estimates but build no history).
	maxPeers int
}

// NewBank builds a Bank producing per-peer filters from factory; a nil
// factory builds None filters (the paper's "No Filter" configuration).
// maxPeers <= 0 means no bound.
func NewBank[K comparable](factory Factory, maxPeers int) *Bank[K] {
	return &Bank[K]{
		factory:  orNone(factory),
		filters:  make(map[K]Filter),
		maxPeers: maxPeers,
	}
}

// Observe routes a sample through the filter owned by peer, creating it on
// first use.
func (b *Bank[K]) Observe(peer K, sample float64) (float64, bool) {
	f, ok := b.filters[peer]
	if !ok {
		if b.maxPeers > 0 && len(b.filters) >= b.maxPeers {
			// Table full: pass the raw sample through rather than
			// evicting an established link's history. A fresh throwaway
			// filter would be wrong here — with any warm-up it reports
			// not-ready on its single sample, silently dropping every
			// overflow peer's observations forever.
			return sample, true
		}
		f = b.factory()
		b.filters[peer] = f
	}
	return f.Observe(sample)
}

// Forget drops the filter state for a peer (e.g. after it leaves the
// neighbor set).
func (b *Bank[K]) Forget(peer K) {
	delete(b.filters, peer)
}

// Reset clears every per-peer filter but keeps the peers known.
func (b *Bank[K]) Reset() {
	for _, f := range b.filters {
		f.Reset()
	}
}

// Peers reports how many peers currently hold filter state.
func (b *Bank[K]) Peers() int { return len(b.filters) }

// Dense is Bank for peers numbered 0..n-1: a table indexed by peer whose
// slots are built on first use, with no bound beyond n. It costs one
// interface value (16 bytes) per possible peer whether or not that peer
// is ever observed, and saves the map lookup on every sample.
//
// Dense is not safe for concurrent use; the owner serializes access.
type Dense struct {
	factory Factory
	filters []Filter // nil where the peer holds no state
	peers   int      // non-nil slots
}

// NewDense builds a table for peers 0..n-1 producing filters from
// factory; a nil factory builds None filters, as in NewBank.
func NewDense(factory Factory, n int) *Dense {
	return &Dense{factory: orNone(factory), filters: make([]Filter, n)}
}

// Observe routes a sample through peer's filter, creating it on first
// use; peer must be in [0, n).
//
//nc:hotpath
func (d *Dense) Observe(peer int, sample float64) (float64, bool) {
	f := d.filters[peer]
	if f == nil {
		f = d.factory()
		d.filters[peer] = f
		d.peers++
	}
	return f.Observe(sample)
}

// Forget drops the filter state for a peer.
func (d *Dense) Forget(peer int) {
	if d.filters[peer] != nil {
		d.filters[peer] = nil
		d.peers--
	}
}

// Reset clears every per-peer filter but keeps the peers known.
func (d *Dense) Reset() {
	for _, f := range d.filters {
		if f != nil {
			f.Reset()
		}
	}
}

// Peers reports how many peers currently hold filter state.
func (d *Dense) Peers() int { return d.peers }

// orNone reads a nil factory as the identity filter's.
func orNone(factory Factory) Factory {
	if factory == nil {
		return func() Filter { return NewNone() }
	}
	return factory
}
