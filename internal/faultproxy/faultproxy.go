// Package faultproxy is an in-process TCP fault injector for tests: a
// proxy that sits on one edge of a replication topology and makes that
// edge misbehave on command — added latency, connection resets,
// response truncation, and full partitions — so failover logic can be
// driven through real sockets instead of mocks.
//
// Faults are deterministic: probabilistic injections draw from a rand
// seeded by Options.Seed, so a failing test replays identically. The
// proxy is transport-level only — it never parses what it carries —
// which keeps it honest: the code under test sees exactly the byte
// streams and connection errors a real flaky network produces,
// including mid-response cuts that leave JSON bodies half-written.
package faultproxy

import (
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures the injected faults, fixed for the proxy's life
// at New. The zero value forwards faithfully (a transparent proxy),
// which is the right starting state for most tests: establish the
// topology clean, then cut links with SetPartitioned.
type Options struct {
	// Seed seeds the proxy's private rand; 0 means 1 (deterministic
	// either way — there is no time-based fallback).
	Seed int64
	// Latency is added once per forwarded chunk in each direction.
	Latency time.Duration
	// ResetProb is the per-connection probability that the connection
	// is killed abruptly after its first forwarded chunk — the
	// mid-conversation RST that long-poll loops must survive.
	ResetProb float64
	// TruncateAfter, when positive, caps the bytes forwarded from the
	// target back to the client per connection; the connection is cut
	// at the cap, leaving the client a half-delivered response body.
	TruncateAfter int64
}

// Stats counts what the proxy did to traffic.
type Stats struct {
	// Accepted is connections accepted and proxied; Refused is
	// connections dropped at accept because the proxy was partitioned.
	Accepted uint64
	Refused  uint64
	// Resets counts connections killed by ResetProb or by a partition
	// flip; Truncations counts connections cut at TruncateAfter.
	Resets      uint64
	Truncations uint64
}

// Proxy is one listening fault injector in front of one target.
type Proxy struct {
	ln     net.Listener
	target string

	accepted, refused, resets, truncations atomic.Uint64
	partitioned                            atomic.Bool

	// opts and rng are fixed at New; only the accept loop reads them
	// after that, so neither needs a lock.
	opts Options
	rng  *rand.Rand

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// ctx is canceled by Close; upstream dials and latency sleeps hang
	// off it so a closing proxy never pins a goroutine in a dial or a
	// timer.
	ctx    context.Context
	cancel context.CancelFunc

	wg sync.WaitGroup
}

// New starts a proxy on a loopback port in front of target (a
// host:port). Close it when done.
func New(target string, opts Options) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	p := &Proxy{
		ln:     ln,
		target: target,
		rng:    rand.New(rand.NewSource(seed)),
		opts:   opts,
		conns:  make(map[net.Conn]struct{}),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's address as an http base URL — what a follower's
// Upstreams entry points at.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetPartitioned flips the partition: while partitioned, new
// connections are refused at accept and every in-flight connection is
// killed — both directions go dark at once, exactly like a cut link.
func (p *Proxy) SetPartitioned(partitioned bool) {
	p.partitioned.Store(partitioned)
	if partitioned {
		p.killAll()
	}
}

// Stats snapshots the fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:    p.accepted.Load(),
		Refused:     p.refused.Load(),
		Resets:      p.resets.Load(),
		Truncations: p.truncations.Load(),
	}
}

// Close stops the listener and kills every in-flight connection.
func (p *Proxy) Close() {
	p.connMu.Lock()
	p.closed = true
	p.connMu.Unlock()
	p.cancel()
	_ = p.ln.Close()
	p.killAll()
	p.wg.Wait()
}

// killAll abruptly closes every tracked connection.
func (p *Proxy) killAll() {
	p.connMu.Lock()
	for c := range p.conns {
		abort(c)
		delete(p.conns, c)
	}
	p.connMu.Unlock()
}

// sleep waits d or until the proxy closes, reporting whether the full
// latency elapsed — the injected delay must never outlive Close.
func (p *Proxy) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// abort closes a connection with RST semantics where the transport
// supports it: the peer sees a hard error, not a clean EOF.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// track registers a live connection, or refuses it (closing) when the
// proxy is partitioned or closed.
func (p *Proxy) track(c net.Conn) bool {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if p.closed || p.partitioned.Load() {
		abort(c)
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.connMu.Lock()
	delete(p.conns, c)
	p.connMu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if p.partitioned.Load() {
			p.refused.Add(1)
			abort(client)
			continue
		}
		doomed := p.opts.ResetProb > 0 && p.rng.Float64() < p.opts.ResetProb
		p.accepted.Add(1)
		p.wg.Add(1)
		go p.proxy(client, p.opts, doomed)
	}
}

// proxy runs one client connection against the target, forwarding both
// directions through the fault pipeline until either side ends.
func (p *Proxy) proxy(client net.Conn, opts Options, doomed bool) {
	defer p.wg.Done()
	if !p.track(client) {
		return
	}
	defer p.untrack(client)
	dialer := net.Dialer{Timeout: 5 * time.Second}
	upstream, err := dialer.DialContext(p.ctx, "tcp", p.target)
	if err != nil {
		abort(client)
		return
	}
	if !p.track(upstream) {
		abort(client)
		return
	}
	defer p.untrack(upstream)

	// kill tears both sides down at once; pipe goroutines then unblock
	// with read/write errors and drain out.
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			abort(client)
			abort(upstream)
		})
	}
	// The doomed reset and the truncation cap both act on the response
	// direction (target→client): the client sees its request accepted
	// and the answer cut from under it — the nastiest shape for a
	// long-poll loop to survive. Applying them in one direction also
	// keeps the counters exact (one reset per doomed connection).
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pipe(upstream, client, opts, false, 0, kill)
	}()
	go func() {
		defer wg.Done()
		p.pipe(client, upstream, opts, doomed, opts.TruncateAfter, kill)
	}()
	wg.Wait()
	kill()
}

// pipe forwards src→dst chunk by chunk, applying latency, the doomed
// reset (after the first chunk), and the truncation cap (when
// truncateAfter > 0, this is the target→client direction).
func (p *Proxy) pipe(dst, src net.Conn, opts Options, doomed bool, truncateAfter int64, kill func()) {
	buf := make([]byte, 32<<10)
	var forwarded int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if opts.Latency > 0 && !p.sleep(opts.Latency) {
				kill()
				return
			}
			chunk := buf[:n]
			if truncateAfter > 0 && forwarded+int64(n) >= truncateAfter {
				chunk = chunk[:truncateAfter-forwarded]
				if _, werr := dst.Write(chunk); werr == nil {
					// Count, then cut: the client got exactly the cap.
					p.truncations.Add(1)
				}
				kill()
				return
			}
			if _, werr := dst.Write(chunk); werr != nil {
				kill()
				return
			}
			forwarded += int64(n)
			if doomed {
				p.resets.Add(1)
				kill()
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				kill()
				return
			}
			// Clean half-close: propagate the EOF so request/response
			// protocols that close-write still work through the proxy.
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			} else {
				kill()
			}
			return
		}
	}
}
