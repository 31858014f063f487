package wire

import (
	"encoding/json"
	"strconv"
	"time"

	"netcoord/internal/coord"
)

// Entry is one node in a registry: its identifier, its coordinate, and
// freshness/confidence metadata. It is the one entry type of the stack:
// the registry stores it, snapshots persist it, upsert events carry it.
type Entry struct {
	// ID is the node's identifier.
	ID string
	// Coord is the node's coordinate — application-level in normal use,
	// so placements do not churn with every Vivaldi refinement.
	Coord coord.Coordinate
	// Error is the node's Vivaldi error weight (0 = unknown/perfect,
	// toward 1 = low confidence), as carried by coordinate protocols.
	Error float64
	// UpdatedAt is when the entry was last upserted: the TTL eviction
	// clock. It travels as Unix nanoseconds, so replicas and restarts
	// reconstruct it exactly and eviction stays correct across downtime
	// and promotion.
	UpdatedAt time.Time
	// Seq is the change-stream sequence of the mutation that produced
	// this entry state. It is what lets a delta snapshot answer "every
	// entry changed since sequence N" by scanning live state, without
	// event history back to N. Replication and recovery preserve it.
	Seq uint64
}

// MarshalJSON renders the entry as /snapshot and /changes bodies carry
// it. Render-only: nothing in the stack parses this form back.
func (e Entry) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID                string           `json:"id"`
		Coord             coord.Coordinate `json:"coord"`
		Error             float64          `json:"error,omitempty"`
		UpdatedAtUnixNano int64            `json:"updated_at_unix_nano"`
		Seq               uint64           `json:"seq,omitempty"`
	}{e.ID, e.Coord, e.Error, e.UpdatedAt.UnixNano(), e.Seq})
}

// Event is one sequenced registry mutation — the record. Sequence
// numbers are dense and monotonic: a consumer holding everything
// through sequence N resumes with since=N and misses nothing. Every
// exported field is part of the frame: an event reads the same to a
// stream sink, in a history read and at every relay tier.
type Event struct {
	// Seq is the event's position in the total mutation order.
	Seq uint64
	// Op is OpUpsert, OpRemove or OpEvict and selects which of Entry, ID
	// and IDs is meaningful.
	Op byte
	// Entry is set for upserts; its Seq equals the event's.
	Entry Entry
	// ID is set for removes.
	ID string
	// IDs is set for evictions.
	IDs []string
	// PubNs is the Unix-nanosecond wall-clock time the event was first
	// published at the stream's origin (the leader). It is part of the
	// frame, so it travels through every relay tier and through the WAL
	// unchanged, and any consumer can measure end-to-end propagation lag
	// as now-PubNs. Zero means unknown (a hand-built event) — skip lag
	// measurement rather than fabricate one.
	PubNs int64
	// Epoch is the fencing epoch the event was published under. A
	// promotion bumps the stream's epoch, so events a deposed leader
	// keeps writing carry a lower epoch than the promoted stream and are
	// rejected by every consumer instead of forking replica state. Zero
	// is the unfenced pre-failover epoch.
	Epoch uint64

	// frame is the event's encoded form: set once, by Encode at the
	// stream's origin or by DecodeEvent wherever the bytes arrived, and
	// immutable afterwards. nil on hand-built events.
	frame []byte
}

// Tombstone records that an id was removed (or evicted) at a
// change-stream sequence. The feed remembers a ring of them and
// snapshots persist it, so removal knowledge — what delta re-bootstraps
// depend on — survives a restart or a promotion.
type Tombstone struct {
	// Seq is the sequence of the removal.
	Seq uint64
	// ID is the removed id.
	ID string
}

// opName is an op's name in JSON bodies.
func opName(op byte) string {
	switch op {
	case OpUpsert:
		return "upsert"
	case OpRemove:
		return "remove"
	case OpEvict:
		return "evict"
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// MarshalJSON renders the event as a /changes body carries it; inside
// an event the entry-level sequence is omitted — the event's own Seq is
// the same number. Render-only, like Entry's.
func (ev Event) MarshalJSON() ([]byte, error) {
	out := struct {
		Seq   uint64   `json:"seq"`
		Op    string   `json:"op"`
		Entry *Entry   `json:"entry,omitempty"`
		ID    string   `json:"id,omitempty"`
		IDs   []string `json:"ids,omitempty"`
		PubNs int64    `json:"pub_ns,omitempty"`
		Epoch uint64   `json:"epoch,omitempty"`
	}{Seq: ev.Seq, Op: opName(ev.Op), ID: ev.ID, IDs: ev.IDs, PubNs: ev.PubNs, Epoch: ev.Epoch}
	if ev.Op == OpUpsert {
		entry := ev.Entry
		entry.Seq = 0
		out.Entry = &entry
	}
	return json.Marshal(out)
}

// Frame returns the event's encoded frame, or nil when it carries none.
// The bytes are shared by every copy of the event and must not be
// modified.
func (ev *Event) Frame() []byte { return ev.frame }

// AppendFrameTo appends the event's frame to dst: a copy of the bytes
// it carries — the relay-forward and history-serving hot path — or, for
// an event that carries none, a fresh encoding.
//
//nc:hotpath
func (ev *Event) AppendFrameTo(dst []byte) ([]byte, error) {
	if ev.frame != nil {
		return append(dst, ev.frame...), nil
	}
	fr := Frame{Op: ev.Op, Seq: ev.Seq, Epoch: ev.Epoch, PubNs: ev.PubNs, ID: ev.ID, IDs: ev.IDs}
	if ev.Op == OpUpsert {
		fr.ID, fr.Coord, fr.Error, fr.UpdatedAtNs = ev.Entry.ID, ev.Entry.Coord, ev.Entry.Error, ev.Entry.UpdatedAt.UnixNano()
	}
	return AppendFrame(dst, &fr)
}

// Encode appends the event's frame to dst and keeps the appended bytes
// as the event's frame; the caller must never write to them again. On
// error the event carries no frame.
//
//nc:hotpath
func (ev *Event) Encode(dst []byte) ([]byte, error) {
	ev.frame = nil
	start := len(dst)
	dst, err := ev.AppendFrameTo(dst)
	if err == nil {
		ev.frame = dst[start:len(dst):len(dst)]
	}
	return dst, err
}

// DecodeEvent parses one frame from the front of src, returning the
// event and the bytes consumed. The event keeps src[:n] as its frame —
// a view, not a copy, so src must stay unmodified for the event's
// lifetime.
func DecodeEvent(src []byte) (Event, int, error) {
	var fr Frame
	n, err := DecodeFrameInto(&fr, src)
	if err != nil {
		return Event{}, 0, err
	}
	return eventOf(&fr, src[:n:n]), n, nil
}

// eventOf is the event a decoded frame describes, carrying frame as its
// encoding.
func eventOf(fr *Frame, frame []byte) Event {
	ev := Event{Seq: fr.Seq, Op: fr.Op, PubNs: fr.PubNs, Epoch: fr.Epoch, frame: frame}
	switch fr.Op {
	case OpUpsert:
		ev.Entry = fr.Entry()
	case OpRemove:
		ev.ID = fr.ID
	case OpEvict:
		ev.IDs = fr.IDs
	}
	return ev
}

// Entry returns an upsert frame's payload as an entry.
func (fr *Frame) Entry() Entry {
	return Entry{ID: fr.ID, Coord: fr.Coord, Error: fr.Error, UpdatedAt: time.Unix(0, fr.UpdatedAtNs), Seq: fr.Seq}
}

// AppendEntryFrame appends e as a snapshot record: an upsert frame whose
// seq is the entry's own.
func AppendEntryFrame(dst []byte, e *Entry) ([]byte, error) {
	ev := Event{Op: OpUpsert, Seq: e.Seq, Entry: *e}
	return ev.AppendFrameTo(dst)
}
