// Package persist is the registry's durability layer: an append-only
// write-ahead log of mutations plus periodic snapshot compaction, so a
// coordinate service restarts warm instead of forgetting every node and
// re-converging from the origin.
//
// The design follows the usual WAL/snapshot split:
//
//   - Every mutation (upsert, remove, evict) is appended to the current
//     WAL generation as a length- and checksum-framed record whose
//     payload is the mutation's wire frame — the bytes the change feed
//     encoded at publish, not a second encoding. Snapshot entries are
//     wire frames too; internal/wire alone knows the layout. Appends
//     only enqueue into an in-memory buffer; a background flusher
//     group-commits the buffer with one write+fsync per batch, so the
//     hot path never waits on the disk. The durability window is the
//     flush interval (plus whatever the OS holds) — an acceptable trade
//     for coordinate data, which peers re-publish continuously anyway.
//   - Compaction rotates the WAL to a new generation, captures the full
//     registry state, and writes it as a snapshot file (temp file +
//     fsync + atomic rename). Older generations are then deleted.
//   - Recovery loads the newest readable snapshot and replays every WAL
//     generation at or above it, in order. A torn or truncated final
//     record — the signature of a crash mid-append — ends replay at the
//     last complete record and the tail is discarded.
//
// The capture-after-rotation ordering makes recovery correct without
// any cross-file coordination: every mutation logged to an old
// generation was applied before the rotation, hence is contained in the
// snapshot; mutations logged to the new generation are replayed over
// the snapshot in log order, and replaying an already-applied prefix is
// idempotent because records are per-id last-write-wins.
package persist

import "netcoord/internal/wire"

// Entry is one persisted registry entry. Recovery hands it back with
// the sequence its snapshot frame or WAL record carried.
type Entry = wire.Entry

// Tombstone is one remembered removal in a snapshot's tombstone ring.
type Tombstone = wire.Tombstone

// Capture is one consistent registry state capture, the input to
// compaction: the live entries, the change-stream position and fencing
// epoch they were read at, and the tombstone ring (oldest first) with
// its floor — the sequence at or below which removal knowledge is
// incomplete.
type Capture struct {
	Entries        []Entry
	Seq            uint64
	Epoch          uint64
	TombstoneFloor uint64
	Tombstones     []Tombstone
}

// maxRecordSize bounds one WAL record's payload. Oversized values on
// disk mean corruption, not data: replay rejects them instead of
// allocating garbage-controlled amounts of memory. The feed chunks
// evictions at publish so honest frames stay far below it.
const maxRecordSize = 1 << 20
