// Command ncserve exposes a coordinate Registry as an HTTP JSON service:
// a deployable proximity oracle. Nodes (or a bridge from your coordinate
// gossip) POST their application-level coordinates in; clients ask
// "nearest k nodes to this coordinate", "RTT between these two nodes",
// or "who is inside my latency budget".
//
//	ncserve -listen 127.0.0.1:8700 -ttl 5m
//
// Endpoints (all JSON; implemented in internal/server):
//
//	POST /upsert   {"id":"n1","coord":{"vec":[1,2,3]},"error":0.3}
//	               or {"entries":[{...},{...}]} for batches
//	POST /remove   {"id":"n1"}
//	POST /nearest  {"coord":{"vec":[1,2,3]},"k":8}
//	POST /nearest/batch  {"queries":[{"coord":...,"k":8},...]}
//	               (many queries, one request)
//	GET  /nearest?id=n1&k=8            (centered on a registered node)
//	GET  /estimate?a=n1&b=n2
//	GET  /snapshot                     (full state + stream sequence)
//	GET  /snapshot?since=N             (delta: entries changed since N)
//	GET  /changes?since=N&wait=10s     (sequenced mutation tail)
//	GET  /watch?id=n1&k=8              (SSE nearest-set deltas)
//	GET  /stats
//	GET  /healthz                      (readiness; followers 503 past -max-lag)
//	GET  /metrics                      (Prometheus text exposition)
//
// With -debug-addr ncserve additionally serves net/http/pprof and
// expvar on a separate listener. That listener can dump heap contents
// and must never be exposed publicly — bind it to loopback or a
// management network.
//
// Every mutation is sequenced into the registry's one change stream —
// in memory, with -data-dir and with -upstreams alike, sized by
// -change-buffer — and the server serves it through the same registry
// handle that answers queries. /changes tails it:
// pass the sequence you hold (mutation responses, /stats, and
// /snapshot all report one) and receive everything after it, waiting
// up to wait when the stream is quiet — in the frame encoding the
// response stays open for the whole window and carries each later
// range as a further batch, which is how replicas tail; a 410 means the range
// was compacted away and you must re-bootstrap from /snapshot —
// /snapshot?since=<your seq> returns just the entries changed since
// then when the server still holds enough history to prove coverage.
// /watch turns the stream into nearest-set pushes: subscribe with a
// coordinate (or registered id) and k, get the initial top-k, then a
// delta only when the top-k membership or order actually changes —
// stable application-level coordinates make those pushes rare, which
// is the point of pushing rather than polling. All watchers — and all
// waiting /changes readers — hang off the server's one internal reader
// of the stream, routed through a spatial damage map, so watcher count
// does not multiply the per-mutation work.
//
// A TTL (with the -ttl flag) makes the registry self-cleaning: nodes
// that stop refreshing their coordinate age out instead of attracting
// traffic forever.
//
// With -data-dir the registry is persistent: every mutation is
// appended to a write-ahead log in that directory and compacted into a
// snapshot every -snapshot-interval (or sooner when the WAL outgrows
// -compact-wal-bytes / -compact-wal-records), so a restarted ncserve
// comes back warm — serving the pre-restart entries with their update
// times preserved — instead of empty. A graceful shutdown
// (SIGINT/SIGTERM) flushes the log before exiting. The WAL is for
// recovery only: /changes history is the in-memory ring, which a
// restart empties, and a resumer below it gets 410 and re-bootstraps
// from /snapshot?since=, as at every tier.
//
// With -upstreams=<url,url,...> ncserve runs as a read-only replica: it
// bootstraps from the first live upstream's /snapshot, tails its
// /changes stream (both in the binary frame encoding), and serves the
// full read surface locally — including /changes, /watch, and
// /snapshot, re-served in the leader's own sequence numbers — with
// replication lag reported in /stats and disclosed on every read via
// the X-NC-Staleness and X-NC-Lag headers. The replica has one change
// feed, its registry's: every upstream event is applied and published
// in one step under the leader's sequence, so at equal seq its state
// equals the leader's and /snapshot pairs are exact. Replicas
// therefore absorb stream fan-out, and chain: a follower can follow a
// follower, forming a relay tree with the leader at the root. The
// registry is read-only until promoted: mutation endpoints return 403
// in this mode.
//
// Failover: when the tailed upstream dies, the replica rotates through
// the -upstreams list with jittered exponential backoff, resuming from
// its applied sequence — the whole tree shares one sequence space, so
// any replica of the same stream can become its parent mid-stream.
// POST /promote turns a replica into the leader: its fencing epoch is
// bumped, the mutation surface opens, and anything the deposed leader
// still writes is rejected (rejected_stale_epoch in /stats) by every
// tier that followed the promotion.
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on http.DefaultServeMux for -debug-addr
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on http.DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netcoord"
	"netcoord/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ncserve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ncserve", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:8700", "HTTP listen address")
		dim          = fs.Int("dim", 0, "coordinate dimension (0 = library default, 3)")
		ttl          = fs.Duration("ttl", 0, "evict entries not refreshed within this duration (0 = keep forever)")
		maxBody      = fs.Int64("max-body", 1<<20, "maximum request body size in bytes")
		dataDir      = fs.String("data-dir", "", "persist the registry (WAL + snapshots) in this directory; empty = in-memory only")
		snapInterval = fs.Duration("snapshot-interval", netcoord.DefaultSnapshotInterval, "how often the WAL is compacted into a snapshot (with -data-dir)")
		flushEvery   = fs.Duration("flush-interval", 0, "WAL group-commit window (0 = 50ms; with -data-dir)")
		compactBytes = fs.Int64("compact-wal-bytes", 0, "also compact when the active WAL exceeds this many bytes (0 = default, negative = timer only; with -data-dir)")
		compactRecs  = fs.Int64("compact-wal-records", 0, "also compact when the active WAL exceeds this many records (0 = default, negative = timer only; with -data-dir)")
		streamBuffer = fs.Int("change-buffer", netcoord.DefaultChangeStreamBuffer, "change-stream ring size: how many recent mutations /changes can serve from memory, and how far the watch hub may lag before it resyncs (0 = default; with -upstreams, the replica's ring)")
		upstreams    = fs.String("upstreams", "", "comma-separated ordered list of upstream ncserve URLs to replicate from; the first is preferred, the rest are failover targets")
		maxLag       = fs.Uint64("max-lag", 0, "follower readiness bound: /healthz answers 503 when replication lag exceeds this many events (0 = default)")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address; bind to loopback only — this listener must never be exposed publicly")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	regCfg := netcoord.RegistryConfig{
		Dimension:          *dim,
		TTL:                *ttl,
		ChangeStreamBuffer: *streamBuffer,
	}
	var upstreamList []string
	for _, u := range strings.Split(*upstreams, ",") {
		if u = strings.TrimSpace(u); u != "" {
			upstreamList = append(upstreamList, u)
		}
	}

	srvCfg := server.Config{MaxBody: *maxBody, MaxLag: *maxLag}
	switch {
	case len(upstreamList) > 0:
		if *dataDir != "" {
			return errors.New("-upstreams and -data-dir are mutually exclusive: a follower's durable state is the leader's")
		}
		if *ttl != 0 {
			return errors.New("-upstreams and -ttl are mutually exclusive: evictions are the leader's decision and arrive through the stream")
		}
		follower, ferr := netcoord.StartFollower(netcoord.FollowerConfig{
			Upstreams: upstreamList,
			Registry:  regCfg,
		})
		if ferr != nil {
			return ferr
		}
		defer follower.Close()
		srvCfg.Registry = follower.Registry
		srvCfg.Follower = follower
		st := follower.FollowerStats()
		fmt.Printf("ncserve following %s (bootstrapped %d entries at seq %d, %d failover targets)\n",
			st.LeaderURL, follower.Len(), st.AppliedSeq, len(upstreamList)-1)
	case *dataDir != "":
		// No `:=` / shadowed error anywhere in this block: the deferred
		// close below must write run's NAMED return, so a failed final
		// flush fails the process — exiting 0 after losing the last
		// commit window would tell supervisors the documented "graceful
		// shutdown loses nothing" guarantee held when it did not.
		var pr *netcoord.PersistentRegistry
		pr, err = netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{
			Registry:          regCfg,
			Dir:               *dataDir,
			SnapshotInterval:  *snapInterval,
			FlushInterval:     *flushEvery,
			CompactWALBytes:   *compactBytes,
			CompactWALRecords: *compactRecs,
		})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := pr.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("persistence shutdown: %w", cerr)
			}
		}()
		srvCfg.Registry = pr.Registry
		srvCfg.Persist = pr
		rec := pr.Recovery()
		fmt.Printf("ncserve recovered %d entries from %s (snapshot gen %d: %d entries, %d WAL records replayed, %d torn bytes dropped, stream seq %d)\n",
			rec.Entries, *dataDir, rec.SnapshotGen, rec.SnapshotEntries, rec.WALRecords, rec.TornBytes, rec.LastSeq)
	default:
		reg, rerr := netcoord.NewRegistry(regCfg)
		if rerr != nil {
			return rerr
		}
		defer reg.Close()
		srvCfg.Registry = reg
	}

	if *debugAddr != "" {
		// pprof and expvar self-register on http.DefaultServeMux, which
		// the main mux never serves: profiling gets its own socket so
		// exposing the service never exposes the debug surface. The
		// operator is expected to bind this to loopback (or a management
		// network) — pprof handlers can dump heap contents.
		dln, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			return derr
		}
		dbg := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = dbg.Serve(dln) }()
		defer dbg.Close()
		fmt.Printf("ncserve debug endpoints (pprof, expvar) on http://%s — never expose publicly\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	handler := server.New(srvCfg)
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	// Register the handler before announcing the address: anyone who
	// read the listen line may immediately send the graceful-shutdown
	// signal, which must never hit the default (no-flush) action.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("ncserve listening on http://%s (ttl %v)\n", ln.Addr(), *ttl)

	select {
	case err := <-errCh:
		return err
	case <-sigCh:
	}
	// Wake the long-lived /watch and /changes handlers first:
	// srv.Shutdown does not cancel in-flight request contexts, so
	// without this a single SSE subscriber would ride out the shutdown
	// timeout and turn every graceful stop into a deadline error.
	handler.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
