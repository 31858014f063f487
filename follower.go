package netcoord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netcoord/internal/changefeed"
	"netcoord/internal/telemetry"
	"netcoord/internal/wire"
)

// Follower retry policy: capped jittered exponential backoff, the same
// shape the serving layer's hub re-attach loop uses. The base is
// the first sleep after an error; every consecutive failure doubles it
// up to the cap, and each sleep is jittered across its upper half so a
// fleet of followers orphaned by one leader death does not reconnect in
// lockstep.
const (
	DefaultFollowerRetryBase = 50 * time.Millisecond
	followerRetryMax         = 5 * time.Second
	// followerDialTimeout bounds connection establishment; a partitioned
	// upstream fails fast instead of consuming a kernel-default TCP
	// timeout per attempt.
	followerDialTimeout = 5 * time.Second
	// followerHeaderSlack is added to the stream window to bound how
	// long a /changes call may go headerless before the client gives up
	// on a wedged upstream.
	followerHeaderSlack = 10 * time.Second
	// followerBootstrapTimeout bounds one whole snapshot transfer.
	followerBootstrapTimeout = 5 * time.Minute
	// followerBatchLimit caps the events in one /changes batch.
	followerBatchLimit = 4096
)

// FollowerConfig assembles a FollowerRegistry. Each /changes batch
// carries at most 4096 events; a follower further behind catches up
// over successive batches of the same stream.
type FollowerConfig struct {
	// Upstreams is the ordered list of base URLs this follower may tail
	// (e.g. "http://10.0.0.1:8700"): the first is preferred, the rest
	// are failover targets. The follower bootstraps from the first live
	// upstream's /snapshot and tails its /changes stream; when an
	// upstream dies — or turns out to be a deposed leader serving a
	// stale fencing epoch — the follower rotates to the next and resumes
	// from its applied sequence (or a delta re-bootstrap) across the
	// boundary.
	Upstreams []string
	// Registry configures the local replica. TTL and JanitorInterval
	// are ignored (forced off): evictions are the leader's decision and
	// arrive through the stream — a follower evicting on its own clock
	// would diverge. ChangeStreamBuffer sizes the replica's ring, as it
	// does any registry's: its one feed carries every applied event under
	// the leader's own sequence number, so it re-serves /changes, /watch,
	// and /snapshot in the leader's sequence space and replicas chain into
	// fan-out tiers.
	Registry RegistryConfig
	// WaitTimeout is the stream window handed to the upstream's
	// /changes endpoint: the upstream holds one response open this long,
	// writing each newly published range on it as a batch, and the
	// follower then opens the next. It also bounds how long a deposed
	// leader with nothing new to send goes unnoticed: its first batch,
	// whose header carries the epoch, comes when the window closes.
	// 0 means 25s.
	WaitTimeout time.Duration
	// RetryInterval is the backoff BASE after an error: the first sleep,
	// doubled per consecutive failure up to 5s, jittered. 0 means
	// DefaultFollowerRetryBase (50ms).
	RetryInterval time.Duration
	// HTTPClient overrides the default client (which has a dial timeout
	// and a response-header timeout sized to the stream window, but no
	// overall timeout — streams hold connections open deliberately).
	HTTPClient *http.Client
}

// FollowerStats reports a follower's replication position — the
// staleness a read-only replica serves with.
type FollowerStats struct {
	// LeaderURL is the upstream currently being tailed; Upstreams is
	// the full ordered failover list.
	LeaderURL string   `json:"leader_url"`
	Upstreams []string `json:"upstreams,omitempty"`
	// AppliedSeq is the last leader sequence applied locally.
	AppliedSeq uint64 `json:"applied_seq"`
	// LeaderSeq is the leader's stream sequence as of the last contact;
	// Lag is LeaderSeq - AppliedSeq, the events known outstanding.
	LeaderSeq uint64 `json:"leader_seq"`
	Lag       uint64 `json:"lag"`
	// Epoch is the fencing epoch of the stream this replica carries;
	// Promoted reports whether this process has been promoted to
	// leader (the tail loop is stopped and local writes are sequenced).
	Epoch    uint64 `json:"epoch"`
	Promoted bool   `json:"promoted"`
	// LastContactAgeSeconds is how long ago the leader last answered
	// (-1 before first contact). With Lag 0, staleness is bounded by
	// this plus the leader's flush-to-stream latency (zero: events are
	// streamed from memory).
	LastContactAgeSeconds float64 `json:"last_contact_age_seconds"`
	// EventsApplied counts stream events applied since start.
	EventsApplied uint64 `json:"events_applied"`
	// FramesReceived counts change frames decoded from upstream
	// /changes batches, applied or not (duplicates are skipped).
	FramesReceived uint64 `json:"frames_received"`
	// Bootstraps counts snapshot loads: the initial one, plus one per
	// stream truncation (the follower fell further behind than the
	// leader retains).
	Bootstraps uint64 `json:"bootstraps"`
	// DeltaBootstraps counts the subset of Bootstraps served as deltas
	// (/snapshot?since=): only the entries changed since the follower's
	// applied sequence travelled, not the whole registry.
	DeltaBootstraps uint64 `json:"delta_bootstraps"`
	// Failovers counts rotations to the next upstream; Reconnects
	// counts successful resumptions after one or more errors (on the
	// same upstream or a new one). RejectedStaleEpoch counts responses
	// and events refused because they carried a lower fencing epoch
	// than this replica's stream — a deposed leader still serving.
	Failovers          uint64 `json:"failovers"`
	Reconnects         uint64 `json:"reconnects"`
	RejectedStaleEpoch uint64 `json:"rejected_stale_epoch"`
	// Errors counts failed leader calls; LastError is the most recent.
	Errors    uint64 `json:"errors"`
	LastError string `json:"last_error,omitempty"`
	// ApplyLagNs summarizes publish→apply propagation lag: for every
	// applied event carrying a leader publish stamp, the wall-clock
	// nanoseconds between the leader publishing it and this replica
	// applying it. This is the true end-to-end staleness of the relay
	// chain (cross-host clock skew included; negative lags clamp to 0).
	ApplyLagNs telemetry.Summary `json:"apply_lag_ns"`
	// LastBootstrapSeconds and LastBootstrapKind describe the most
	// recent snapshot load: how long it took and whether it was a
	// "full" or "delta" transfer.
	LastBootstrapSeconds float64 `json:"last_bootstrap_seconds"`
	LastBootstrapKind    string  `json:"last_bootstrap_kind,omitempty"`
}

// errStreamGone signals a 410 from /changes: the resume point was
// compacted away and only a fresh snapshot can re-synchronize.
var errStreamGone = errors.New("netcoord: follower: leader history truncated")

// errStaleEpoch signals that an upstream served a lower fencing epoch
// than this replica's stream carries: it is a deposed leader (or a
// replica still following one). The only correct reaction is to refuse
// everything it sent and rotate to the next upstream.
var errStaleEpoch = errors.New("netcoord: follower: upstream serves a stale fencing epoch")

// errNotFrames signals that an upstream answered /changes or /snapshot
// in something other than the binary frame encoding — the one
// replication protocol. It will not start speaking it on a retry, so
// the follower rotates to the next upstream at once.
var errNotFrames = errors.New("netcoord: follower: upstream does not serve the binary frame encoding")

// ErrNotPromotable is returned by Promote on a follower that was
// already promoted.
var ErrNotPromotable = errors.New("netcoord: follower: already promoted")

// FollowerRegistry is a read-only replica of a leader registry,
// synchronized over the leader's change stream in the binary frame
// encoding (internal/wire): it bootstraps from /snapshot (bulk-building
// the spatial index in one pass), then tails /changes as a stream — one
// request per WaitTimeout window, on whose held-open response the
// upstream writes each newly published range as a batch — applying
// each batch's upserts, removes, and evictions as it arrives, in leader
// order with UpdatedAt timestamps preserved bit-identically.
// If it falls further behind than the leader retains (ring + WAL), it
// re-bootstraps automatically — fetching only the entries changed since
// its applied sequence when the leader can serve a delta.
//
// The embedded Registry serves every read — Nearest, Estimate, Get,
// Within — making the follower a horizontally scalable proximity
// read path; IDMS in PAPERS.md argues exactly this replicated-serving
// shape for delay estimation. It is read-only until promoted: Upsert
// and UpsertBatch return ErrReadOnlyReplica, Remove reports false and
// Feed counts feed errors, because a local write would be numbered
// into the leader's sequence space. FollowerStats reports the
// replica's staleness honestly so callers can decide how much to trust
// a read.
//
// A follower serves its stream with no code of its own: the embedded
// Registry's feed IS the relayed stream. Each upstream event is applied
// through the registry's one apply path — the leader's — which changes
// the store (its index) and stream in one hold of the write lock, publishing
// the event under the leader's sequence number and with the leader's
// frame bytes (decoded here to apply, never re-encoded). So at every
// sequence the replica's state equals the leader's at that sequence,
// SnapshotWithSeq and DeltaSince are exact pairs even across a
// re-bootstrap, and a serving layer on top of a follower re-serves the
// stream endpoints identically to the leader — byte for byte on
// /changes?format=frames. A consumer that outruns the ring gets
// ErrChangeHistoryTruncated and re-bootstraps from this follower's
// snapshot — the same protocol it would run against the leader — which
// is what lets replicas chain (follower-of-follower) into a fan-out
// tree.
//
// Failure handling: the tail loop survives upstream death. Errors back
// off with capped jittered exponentials; a second consecutive failure
// (or any stale-epoch detection) rotates to the next configured
// upstream, resuming from the applied sequence — the whole tree speaks
// one sequence space, so any replica of the same stream can take over
// as parent mid-stream. Promote turns this replica into the leader:
// the tail stops, the fencing epoch is bumped, the read-only guard is
// lifted, and every subsequent local mutation continues the dense
// sequence space under the new epoch, fencing out whatever the deposed
// leader still writes.
type FollowerRegistry struct {
	*Registry
	upstreams []string
	active    atomic.Int32
	client    *http.Client
	wait      time.Duration
	retry     time.Duration

	leaderSeq      atomic.Uint64
	framesReceived atomic.Uint64
	eventsApplied,
	bootstraps,
	deltaBootstraps,
	failovers,
	reconnects,
	rejectedStale,
	errCount atomic.Uint64

	promoteOnce sync.Once

	// slab holds the frame bytes of every event the tail loop decodes;
	// only that goroutine appends to it.
	slab wire.Slab

	// applyLag accumulates publish→apply propagation lag (ns) for every
	// applied event that carries a leader publish stamp.
	applyLag *telemetry.Histogram
	// lastBootstrapNs is the duration of the most recent bootstrap;
	// lastBootstrapDelta records whether it was a delta transfer.
	lastBootstrapNs    atomic.Int64
	lastBootstrapDelta atomic.Bool

	mu          sync.Mutex
	lastContact time.Time
	lastErr     string

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// newReplicaRegistry builds the registry a follower embeds: read-only
// until promoted, and no TTL (evictions are the leader's decision and
// arrive through the stream). Its one feed carries the leader's
// sequence space.
func newReplicaRegistry(cfg RegistryConfig) (*Registry, error) {
	cfg.TTL = 0
	cfg.JanitorInterval = 0
	reg, err := NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	reg.replica.Store(true)
	return reg, nil
}

// StartFollower builds the local replica, performs the initial
// snapshot bootstrap synchronously — trying each configured upstream in
// order until one answers, so the caller serves warm data the moment it
// returns — and starts the background tail loop. Call Close to stop it.
func StartFollower(cfg FollowerConfig) (*FollowerRegistry, error) {
	// A copy: the URLs are normalised in place below.
	upstreams := append([]string(nil), cfg.Upstreams...)
	if len(upstreams) == 0 {
		return nil, fmt.Errorf("netcoord: follower: no upstreams configured")
	}
	for i, u := range upstreams {
		base, err := url.Parse(u)
		if err != nil || base.Host == "" || (base.Scheme != "http" && base.Scheme != "https") {
			return nil, fmt.Errorf("netcoord: follower: upstream URL %q is not an absolute http(s) URL", u)
		}
		upstreams[i] = strings.TrimRight(u, "/")
	}
	reg, err := newReplicaRegistry(cfg.Registry)
	if err != nil {
		return nil, err
	}
	wait := cfg.WaitTimeout
	if wait <= 0 {
		wait = 25 * time.Second
	}
	retry := cfg.RetryInterval
	if retry <= 0 {
		retry = DefaultFollowerRetryBase
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				DialContext: (&net.Dialer{
					Timeout: followerDialTimeout,
				}).DialContext,
				// A wedged upstream must fail the stream shortly after
				// its window, not hold a goroutine hostage.
				ResponseHeaderTimeout: wait + followerHeaderSlack,
				MaxIdleConnsPerHost:   4,
			},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &FollowerRegistry{
		Registry:  reg,
		upstreams: upstreams,
		client:    client,
		wait:      wait,
		retry:     retry,
		applyLag:  telemetry.NewHistogram(),
		ctx:       ctx,
		cancel:    cancel,
	}
	var bootErr error
	for range upstreams {
		if bootErr = f.bootstrap(); bootErr == nil {
			break
		}
		f.active.Store((f.active.Load() + 1) % int32(len(upstreams)))
	}
	if bootErr != nil {
		cancel()
		reg.Close()
		return nil, fmt.Errorf("netcoord: follower: bootstrap (tried %d upstreams, last %s): %w", len(upstreams), f.upstream(), bootErr)
	}
	f.wg.Add(1)
	go f.tail()
	return f, nil
}

// upstream is the base URL currently being tailed.
func (f *FollowerRegistry) upstream() string {
	return f.upstreams[int(f.active.Load())%len(f.upstreams)]
}

// rotateUpstream fails over to the next configured upstream. With a
// single upstream it is a no-op (there is nowhere to go; backoff keeps
// retrying the one we have).
func (f *FollowerRegistry) rotateUpstream() {
	if len(f.upstreams) < 2 {
		return
	}
	f.active.Store((f.active.Load() + 1) % int32(len(f.upstreams)))
	f.failovers.Add(1)
}

// FollowerStats snapshots the replication position.
func (f *FollowerRegistry) FollowerStats() FollowerStats {
	applied, leader := f.ChangeSeq(), f.leaderSeq.Load()
	f.mu.Lock()
	lastContact, lastErr := f.lastContact, f.lastErr
	f.mu.Unlock()
	age, lag := staleness(applied, leader, lastContact)
	st := FollowerStats{
		LeaderURL:             f.upstream(),
		Upstreams:             f.upstreams,
		AppliedSeq:            applied,
		LeaderSeq:             leader,
		Epoch:                 f.ChangeEpoch(),
		Promoted:              f.Promoted(),
		EventsApplied:         f.eventsApplied.Load(),
		FramesReceived:        f.framesReceived.Load(),
		Bootstraps:            f.bootstraps.Load(),
		DeltaBootstraps:       f.deltaBootstraps.Load(),
		Failovers:             f.failovers.Load(),
		Reconnects:            f.reconnects.Load(),
		RejectedStaleEpoch:    f.rejectedStale.Load(),
		Errors:                f.errCount.Load(),
		LastError:             lastErr,
		LastContactAgeSeconds: age,
		Lag:                   lag,
		ApplyLagNs:            f.applyLag.Summary(),
		LastBootstrapSeconds:  float64(f.lastBootstrapNs.Load()) / 1e9,
	}
	if f.bootstraps.Load() > 0 {
		if f.lastBootstrapDelta.Load() {
			st.LastBootstrapKind = "delta"
		} else {
			st.LastBootstrapKind = "full"
		}
	}
	return st
}

// Staleness reports FollowerStats' LastContactAgeSeconds and Lag alone:
// how long ago the upstream last answered (-1 before first contact) and
// the events known outstanding. Every read a replica serves is stamped
// with the two, so they cost two atomic loads and one short lock hold,
// not a full FollowerStats.
func (f *FollowerRegistry) Staleness() (contactAgeSeconds float64, lag uint64) {
	applied, leader := f.ChangeSeq(), f.leaderSeq.Load()
	f.mu.Lock()
	lastContact := f.lastContact
	f.mu.Unlock()
	return staleness(applied, leader, lastContact)
}

// staleness derives Staleness' two numbers from one read of the applied
// and leader sequences and the last contact time.
func staleness(applied, leader uint64, lastContact time.Time) (contactAgeSeconds float64, lag uint64) {
	contactAgeSeconds = -1
	if !lastContact.IsZero() {
		contactAgeSeconds = time.Since(lastContact).Seconds()
	}
	if leader > applied {
		lag = leader - applied
	}
	return contactAgeSeconds, lag
}

// AppliedSeq is the last leader sequence applied locally — ChangeSeq
// under the name replication reads it by.
func (f *FollowerRegistry) AppliedSeq() uint64 { return f.ChangeSeq() }

// Promoted reports whether this replica has been promoted to leader.
func (f *FollowerRegistry) Promoted() bool { return !f.Registry.replica.Load() }

// Promote turns this replica into the authoritative leader of the
// stream it carries. The tail loop is stopped and drained (no more
// upstream events can race local writes); then, in one hold of the
// registry's write lock, the fencing epoch is bumped and the read-only
// guard is lifted. The feed already sits exactly at the applied
// sequence — it is the one the relayed events were published to — so
// every subsequent local mutation continues the dense sequence space
// under the new epoch. Anything the deposed leader still writes carries
// the old epoch and is rejected by every replica and watcher that
// followed the promotion.
//
// Promote returns the new epoch. It is idempotent: later calls return
// ErrNotPromotable with the already-established epoch. The caller owns
// making promotion unique across the deployment (promote exactly one
// replica); two promoted leaders fence each other's followers into
// whichever epoch is higher.
func (f *FollowerRegistry) Promote() (uint64, error) {
	first := false
	f.promoteOnce.Do(func() {
		first = true
		f.cancel()
		f.wg.Wait()
		f.Registry.promote()
	})
	if !first {
		return f.ChangeEpoch(), ErrNotPromotable
	}
	return f.ChangeEpoch(), nil
}

// Close stops the tail loop and the local registry (detaching every
// change-stream cursor).
func (f *FollowerRegistry) Close() {
	f.closeOnce.Do(func() {
		f.cancel()
		f.wg.Wait()
		f.Registry.Close()
	})
}

// tail follows the current upstream's change stream until Close (or
// Promote). Transient errors back off with capped jittered
// exponentials; a second consecutive failure rotates to the next
// upstream, and a stale-epoch or wrong-protocol detection rotates
// immediately — a deposed leader never becomes healthy again and a
// JSON-only upstream never starts speaking frames, so waiting on
// either is pure unavailability.
func (f *FollowerRegistry) tail() {
	defer f.wg.Done()
	backoff := f.retry
	consecutive := 0
	for f.ctx.Err() == nil {
		err := f.streamOnce()
		if err != nil && f.ctx.Err() != nil {
			return
		}
		if errors.Is(err, errStreamGone) {
			// Fell off the upstream's history: re-bootstrap, and let the
			// bootstrap's outcome stand in for the stream's below.
			f.noteErr(err)
			err = f.bootstrap()
		}
		switch {
		case err == nil:
			if consecutive > 0 {
				f.reconnects.Add(1)
			}
			consecutive = 0
			backoff = f.retry
		case errors.Is(err, errStaleEpoch), errors.Is(err, errNotFrames):
			f.noteErr(err)
			f.rotateUpstream()
			consecutive = 0
			backoff = f.sleepBackoff(backoff)
		default:
			f.noteErr(err)
			consecutive++
			if consecutive >= 2 {
				// One failure can be a blip; two in a row reads as a dead
				// upstream. Rotate rather than wait out the full backoff
				// ladder against a corpse.
				f.rotateUpstream()
				consecutive = 0
			}
			backoff = f.sleepBackoff(backoff)
		}
	}
}

// sleepBackoff sleeps a jittered cur (uniform over [cur/2, cur]) or
// until Close, and returns the next backoff (doubled, capped).
func (f *FollowerRegistry) sleepBackoff(cur time.Duration) time.Duration {
	d := cur/2 + time.Duration(rand.Int63n(int64(cur/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.ctx.Done():
	case <-t.C:
	}
	next := cur * 2
	if next > followerRetryMax {
		next = followerRetryMax
	}
	return next
}

func (f *FollowerRegistry) noteErr(err error) {
	f.errCount.Add(1)
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

func (f *FollowerRegistry) noteContact() {
	f.mu.Lock()
	f.lastContact = time.Now()
	f.mu.Unlock()
}

// streamOnce opens one /changes stream from the current position and
// applies each batch as it arrives, until the upstream ends the body at
// its window's close. The request carries a deadline past the window
// so a wedged upstream (connected but never finishing) fails the
// stream instead of hanging the tail loop forever.
func (f *FollowerRegistry) streamOnce() error {
	since := f.ChangeSeq()
	u := fmt.Sprintf("%s/changes?since=%d&limit=%d&wait=%s",
		f.upstream(), since, followerBatchLimit, url.QueryEscape(f.wait.String()))
	ctx, cancel := context.WithTimeout(f.ctx, f.wait+2*followerHeaderSlack)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", wire.ContentTypeFrames)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	// Closed, never drained: the upstream holds the body open until its
	// window closes, so draining would wait out the window. A stream left
	// early costs its connection, once.
	defer func() { _ = resp.Body.Close() }()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		f.noteContact()
		return errStreamGone
	default:
		return fmt.Errorf("leader /changes: %s", httpErrorDetail(resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeFrames {
		return fmt.Errorf("%w (/changes answered %q, want %q)", errNotFrames, ct, wire.ContentTypeFrames)
	}
	return f.ingest(resp.Body)
}

// ingest reads /changes batches off body until it ends, fencing and
// applying each as it arrives; an upstream that predates streaming
// sends one. Each event keeps a view of its own frame bytes in the
// follower's slab, so when the feed fans it out to the next tier it
// forwards the leader's bytes verbatim — the decode here is for
// applying, never for re-encoding. A batch cut short applies nothing.
func (f *FollowerRegistry) ingest(body io.Reader) error {
	r := wire.NewReader(body, 0)
	var events []ChangeEvent
	for batches := 0; ; batches++ {
		hdr, evs, err := r.ReadBatch(events[:0], &f.slab)
		if err == io.EOF && batches > 0 {
			return nil
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a body must carry at least one batch
		}
		if err != nil {
			return fmt.Errorf("leader /changes: frames: batch %d: %w", batches+1, err)
		}
		events = evs
		f.noteContact()
		// Body-level fencing: an upstream whose stream epoch is behind
		// ours is deposed (or still following the deposed leader) —
		// detectable even on an empty batch, so the follower rotates away
		// instead of quietly tailing a fork. An upstream merely lagging
		// the promotion reports the old epoch too, but rotating off it is
		// also right: it cannot have events we need that the promoted
		// chain lacks.
		if own := f.ChangeEpoch(); hdr.Epoch < own {
			f.rejectedStale.Add(1)
			return fmt.Errorf("%w (/changes epoch %d < local %d)", errStaleEpoch, hdr.Epoch, own)
		}
		f.leaderSeq.Store(hdr.Seq)
		f.framesReceived.Add(uint64(len(evs)))
		if err := f.apply(evs); err != nil {
			return err
		}
	}
}

// apply replays a batch of leader events, in order, through the
// registry's one apply path: each event changes the store (its index) and
// stream in one hold of the write lock, published under the leader's
// own sequence number, so a cursor woken by an event — and a poller
// re-checking ChangeSeq — always observes a registry that already
// reflects it. Upserts preserve UpdatedAt and Seq exactly. The feed is
// the judge of continuity and fencing, before anything changes: a
// duplicate delivery is skipped; a gap means the leader served us a
// hole, and the only safe repair is a fresh bootstrap; an event
// carrying a lower fencing epoch than the stream already adopted is a
// deposed leader's write, and the follower rotates upstream (per-event
// defense in depth under the body-level check in ingest).
func (f *FollowerRegistry) apply(events []ChangeEvent) error {
	for i := range events {
		ev := &events[i]
		switch err := f.Registry.applyRelayed(ev); {
		case err == nil:
			f.eventsApplied.Add(1)
			if ev.PubNs > 0 {
				f.applyLag.Observe(time.Now().UnixNano() - ev.PubNs)
			}
		case errors.Is(err, changefeed.ErrDuplicate):
		case errors.Is(err, changefeed.ErrGap):
			return fmt.Errorf("%w (gap: applied %d, next event %d)", errStreamGone, f.ChangeSeq(), ev.Seq)
		case errors.Is(err, changefeed.ErrStaleEpoch):
			f.rejectedStale.Add(1)
			return fmt.Errorf("%w (event seq %d epoch %d < local %d)", errStaleEpoch, ev.Seq, ev.Epoch, f.ChangeEpoch())
		default:
			return fmt.Errorf("apply seq %d: %w", ev.Seq, err)
		}
	}
	return nil
}

// bootstrap synchronizes the local registry with the leader's snapshot.
//
// The initial call (and any re-bootstrap the leader answers in full)
// makes the registry exactly the snapshot — every entry with its
// original UpdatedAt and Seq, one balanced index build — through
// Registry.load. A re-bootstrap after truncation
// asks for /snapshot?since=<applied> instead: when the leader can prove
// coverage from its ring/WAL history it answers with a delta — only the
// entries changed since that sequence, plus the removed ids — so a
// replica that fell just past the retained stream repairs itself with
// traffic proportional to what it missed, not to the registry.
//
// The stream moves to the snapshot sequence in the same lock hold as
// the state: the previous ring described a stream position that no
// longer connects to the rewritten state, so every cursor is told and
// its owner resyncs — the same protocol it runs when it falls off the
// ring.
//
// A snapshot carrying a lower fencing epoch than the stream already
// adopted is refused outright: re-basing onto a deposed leader's state
// would fork this replica (and every tier below it) off the promoted
// history.
func (f *FollowerRegistry) bootstrap() error {
	start := time.Now()
	snapURL := f.upstream() + "/snapshot"
	if applied := f.ChangeSeq(); applied > 0 {
		snapURL = fmt.Sprintf("%s?since=%d", snapURL, applied)
	}
	ctx, cancel := context.WithTimeout(f.ctx, followerBootstrapTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, snapURL, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", wire.ContentTypeSnapshot)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close() // drained above; the response was already consumed
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leader /snapshot: %s", httpErrorDetail(resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeSnapshot {
		return fmt.Errorf("%w (/snapshot answered %q, want %q)", errNotFrames, ct, wire.ContentTypeSnapshot)
	}
	return f.bootstrapFrames(resp.Body, start)
}

// bootstrapFrames decodes a /snapshot body incrementally: the
// wire.Reader holds a sliding window over the response instead of
// buffering the whole transfer, and each entry frame decodes straight
// into its final RegistryEntry, so a bootstrap allocates an entry slice
// plus the id strings and vectors it keeps.
func (f *FollowerRegistry) bootstrapFrames(body io.Reader, start time.Time) error {
	r := wire.NewReader(body, 0)
	hdr, err := r.ReadSnapshotHeader()
	if err != nil {
		return fmt.Errorf("leader /snapshot: frames: %w", err)
	}
	// Fence before decoding entries: a deposed leader's snapshot is
	// refused on its header, not after streaming its whole registry.
	if own := f.ChangeEpoch(); hdr.Epoch < own {
		f.rejectedStale.Add(1)
		return fmt.Errorf("%w (/snapshot epoch %d < local %d)", errStaleEpoch, hdr.Epoch, own)
	}
	capHint := hdr.EntryCount
	if capHint > 1<<16 {
		capHint = 1 << 16 // never size an allocation by an unverified header field
	}
	batch := make([]RegistryEntry, 0, capHint)
	var fr wire.Frame
	for i := uint64(0); i < hdr.EntryCount; i++ {
		if err := r.ReadFrame(&fr); err != nil {
			return fmt.Errorf("leader /snapshot: entry %d/%d: %w", i+1, hdr.EntryCount, err)
		}
		if fr.Op != wire.OpUpsert {
			return fmt.Errorf("leader /snapshot: entry %d/%d has op %d, want upsert", i+1, hdr.EntryCount, fr.Op)
		}
		batch = append(batch, fr.Entry())
	}
	f.noteContact()
	return f.finishBootstrap(start, hdr.Seq, hdr.Epoch, hdr.Delta, hdr.Removed, batch)
}

// finishBootstrap loads a decoded snapshot into the local registry —
// state, sequence and epoch in one step (Registry.load) — and records
// the bootstrap. The caller fenced the snapshot's epoch on its header,
// and nothing else moves the epoch while the tail loop runs (Promote
// stops the loop first), so adopting it here is only ever upward: a
// replica bootstrapping across a promotion joins the new epoch.
func (f *FollowerRegistry) finishBootstrap(start time.Time, seq, epoch uint64, delta bool, removed []string, batch []RegistryEntry) error {
	if err := f.Registry.load(batch, removed, delta, seq, epoch); err != nil {
		return fmt.Errorf("apply snapshot: %w", err)
	}
	if seq > f.leaderSeq.Load() {
		f.leaderSeq.Store(seq)
	}
	f.bootstraps.Add(1)
	if delta {
		f.deltaBootstraps.Add(1)
	}
	f.lastBootstrapNs.Store(time.Since(start).Nanoseconds())
	f.lastBootstrapDelta.Store(delta)
	return nil
}

// httpErrorDetail summarizes a non-200 response, including the JSON
// error field when the body carries one.
func httpErrorDetail(resp *http.Response) string {
	var body struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		return fmt.Sprintf("%s (%s)", resp.Status, body.Error)
	}
	return resp.Status
}
