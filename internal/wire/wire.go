// Package wire defines the registry's mutation record — the Event, the
// Entry it carries, and the one byte layout both take on disk and on
// the network: the frame. A mutation is encoded once, when the leader
// publishes it, and those bytes are what the WAL appends, what the
// change ring holds, what /changes?format=frames serves and what every
// relay tier forwards: a replica decodes a frame to apply it locally
// but stores and forwards the original bytes untouched.
//
// Frames are self-delimiting and CRC-free — the transports that carry
// them (HTTP bodies, the WAL's length+CRC envelope, the snapshot
// file's CRC) already frame and checksum. Layout, big endian
// throughout:
//
//	byte    magic (0xC0)
//	byte    version (1)
//	byte    op (1 = upsert, 2 = remove, 3 = evict)
//	uvarint seq
//	uvarint epoch
//	uvarint pub_ns (leader publish time, UnixNano, clamped at 0)
//	-- op = upsert --
//	uvarint id length (1..4096), followed by id bytes
//	coord   1-byte dimension d (max 16), d × float64, float64 height
//	        (the internal/coord/codec.go layout)
//	8 bytes float64 error estimate
//	8 bytes int64 updated_at UnixNano
//	-- op = remove --
//	uvarint id length, followed by id bytes
//	-- op = evict --
//	uvarint id count (>= 1), then per id: uvarint length + bytes
//
// An upsert frame's seq is its entry's sequence: in a change stream
// that is the event's own position, in a snapshot (on the wire or on
// disk) the sequence of the mutation that produced the entry.
//
// A /changes frames body is one or more batches back to back, each a
// batch header (MagicBatch: seq, epoch, frame count) followed by that
// many frames: one batch when the request has no wait window, and on a
// held-open stream one batch per range published inside the window.
// Reader.ReadBatch reads them one at a time.
//
// A snapshot has one body wherever it lives (Snapshot, snapshot.go):
// a snapshot file wraps it in magic, generation and CRC, a /snapshot
// frames response puts the MagicSnapshot envelope in front of it, and
// WriteSnapshotBody, DecodeSnapshot and Reader.ReadSnapshotHeader are
// its one encoder and decoder.
//
// Decoding never allocates more than a capped size from
// attacker-controlled length prefixes: id lengths are bounded by both
// MaxIDLen and the bytes actually remaining in the buffer, coordinate
// dimensions by coord.MaxDimension, evict counts by the remaining
// buffer length, and a snapshot's tombstone and entry counts by the
// bytes of a whole body, or off a stream by a fixed cap.
package wire

import (
	"encoding/binary"
	"errors"
	"math"

	"netcoord/internal/coord"
)

// Frame magic bytes. Each top-level record starts with one of these so
// a stream decoder can detect corruption immediately.
const (
	MagicFrame    = 0xC0 // a single change frame
	MagicBatch    = 0xC1 // a /changes batch header, followed by frames
	MagicSnapshot = 0xC2 // a /snapshot envelope, followed by the snapshot body
)

// Version is the current frame-format version (the batch header's too;
// the /snapshot envelope has its own, snapshotVersion).
const Version = 1

// Op codes: the mutation kinds a registry produces.
const (
	// OpUpsert inserts or refreshes one entry.
	OpUpsert byte = 1
	// OpRemove deletes one entry by id.
	OpRemove byte = 2
	// OpEvict deletes a batch of ids (TTL staleness eviction).
	OpEvict byte = 3
)

// Content types of the binary /changes and /snapshot bodies. A client
// asks for them with the Accept header or format=frames; replicas
// speak nothing else, JSON is the rendering for everyone else.
const (
	ContentTypeFrames   = "application/x-netcoord-frames"
	ContentTypeSnapshot = "application/x-netcoord-snapshot"
)

// MaxIDLen bounds the node-id length a frame can carry.
const MaxIDLen = 4096

// MaxListLen bounds the id-list length accepted in an evict frame
// before any allocation happens. Honest producers
// chunk evictions far below this (changefeed caps chunks at 512 ids).
const MaxListLen = 1 << 20

// ErrShort reports that the buffer ends before the record does; a
// stream decoder should read more bytes and retry.
var ErrShort = errors.New("wire: short buffer")

// ErrMalformed reports a structurally invalid record: bad magic or
// version, an unknown op, or a length prefix that exceeds its cap.
var ErrMalformed = errors.New("wire: malformed frame")

// Encode-side validation errors.
var (
	errBadOp      = errors.New("wire: unknown op")
	errEmptyID    = errors.New("wire: empty id")
	errIDTooLong  = errors.New("wire: id exceeds wire maximum")
	errEmptyEvict = errors.New("wire: evict frame lists no ids")
	errBadDim     = errors.New("wire: coordinate dimension exceeds wire maximum")
)

// ValidateID is the one id rule: 1..MaxIDLen bytes. AppendFrame
// refuses anything else and DecodeFrameInto reports it as
// ErrMalformed, so owners of a registry reject such ids at their API
// boundary — an id no frame can carry would be applied but never
// logged or replicated.
//
//nc:hotpath
func ValidateID(id string) error {
	if len(id) == 0 {
		return errEmptyID
	}
	if len(id) > MaxIDLen {
		return errIDTooLong
	}
	return nil
}

// Frame is the decoded form of a single change frame. Upserts carry
// ID/Coord/Error/UpdatedAtNs; removes carry ID; evicts carry IDs.
type Frame struct {
	Op          byte
	Seq         uint64
	Epoch       uint64
	PubNs       int64
	ID          string
	Coord       coord.Coordinate
	Error       float64
	UpdatedAtNs int64
	IDs         []string
}

// AppendFrame appends the binary encoding of fr to dst and returns the
// extended slice. It writes only into dst (growing it as append does)
// and performs no other allocation.
//
//nc:hotpath
func AppendFrame(dst []byte, fr *Frame) ([]byte, error) {
	switch fr.Op {
	case OpUpsert, OpRemove, OpEvict:
	default:
		return dst, errBadOp
	}
	dst = append(dst, MagicFrame, Version, fr.Op)
	dst = binary.AppendUvarint(dst, fr.Seq)
	dst = binary.AppendUvarint(dst, fr.Epoch)
	dst = binary.AppendUvarint(dst, clampNs(fr.PubNs))
	switch fr.Op {
	case OpUpsert:
		var err error
		if dst, err = appendID(dst, fr.ID); err != nil {
			return dst, err
		}
		// The dimension is checked here, not by coord.Encode, so the
		// encode path stays free of wrapped-error construction.
		if fr.Coord.Dim() > coord.MaxDimension {
			return dst, errBadDim
		}
		dst = fr.Coord.AppendLayout(dst)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(fr.Error))
		dst = binary.BigEndian.AppendUint64(dst, uint64(fr.UpdatedAtNs))
	case OpRemove:
		var err error
		if dst, err = appendID(dst, fr.ID); err != nil {
			return dst, err
		}
	case OpEvict:
		if len(fr.IDs) == 0 {
			return dst, errEmptyEvict
		}
		dst = binary.AppendUvarint(dst, uint64(len(fr.IDs)))
		for _, id := range fr.IDs {
			var err error
			if dst, err = appendID(dst, id); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// appendID appends a length-prefixed id.
//
//nc:hotpath
func appendID(dst []byte, id string) ([]byte, error) {
	if err := ValidateID(id); err != nil {
		return dst, err
	}
	return appendString(dst, id), nil
}

// appendString appends a length-prefixed string the caller has bounded.
//
//nc:hotpath
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// clampNs converts a UnixNano timestamp to the non-negative uvarint
// domain. Negative timestamps (pre-1970 clock damage) clamp to zero.
//
//nc:hotpath
func clampNs(ns int64) uint64 {
	if ns < 0 {
		return 0
	}
	return uint64(ns)
}

// DecodeFrame parses one frame from the front of src, returning the
// frame and the number of bytes consumed. It returns ErrShort when src
// ends before the frame does and ErrMalformed on structural damage.
func DecodeFrame(src []byte) (Frame, int, error) {
	var fr Frame
	n, err := DecodeFrameInto(&fr, src)
	return fr, n, err
}

// DecodeFrameInto parses one frame from the front of src into fr,
// reusing fr.IDs backing storage where possible, and returns the number
// of bytes consumed. The id strings and coordinate vector are freshly
// allocated (they outlive src), but every allocation is capped: ids by
// MaxIDLen and by the bytes remaining, coordinate dimension by
// coord.MaxDimension, evict counts by the bytes remaining.
func DecodeFrameInto(fr *Frame, src []byte) (int, error) {
	if len(src) < 3 {
		return 0, ErrShort
	}
	if src[0] != MagicFrame || src[1] != Version {
		return 0, ErrMalformed
	}
	op := src[2]
	off := 3
	var err error
	fr.Op = op
	fr.ID = ""
	fr.Coord = coord.Coordinate{}
	fr.Error = 0
	fr.UpdatedAtNs = 0
	fr.IDs = fr.IDs[:0]
	if fr.Seq, off, err = readUvarint(src, off); err != nil {
		return 0, err
	}
	if fr.Epoch, off, err = readUvarint(src, off); err != nil {
		return 0, err
	}
	var pub uint64
	if pub, off, err = readUvarint(src, off); err != nil {
		return 0, err
	}
	if pub > math.MaxInt64 {
		return 0, ErrMalformed
	}
	fr.PubNs = int64(pub)
	switch op {
	case OpUpsert:
		if fr.ID, off, err = readID(src, off); err != nil {
			return 0, err
		}
		if fr.Coord, off, err = readCoordinate(src, off); err != nil {
			return 0, err
		}
		if len(src)-off < 16 {
			return 0, ErrShort
		}
		fr.Error = math.Float64frombits(binary.BigEndian.Uint64(src[off:]))
		fr.UpdatedAtNs = int64(binary.BigEndian.Uint64(src[off+8:]))
		off += 16
	case OpRemove:
		if fr.ID, off, err = readID(src, off); err != nil {
			return 0, err
		}
	case OpEvict:
		var count uint64
		if count, off, err = readUvarint(src, off); err != nil {
			return 0, err
		}
		// Every listed id costs at least one byte (its length prefix),
		// so the remaining buffer bounds any honest count: a frame
		// whose buffer holds fewer bytes than ids is simply incomplete,
		// and a count beyond the structural cap is rejected before any
		// allocation sized from it.
		if count == 0 || count > MaxListLen {
			return 0, ErrMalformed
		}
		if count > uint64(len(src)-off) {
			return 0, ErrShort
		}
		if fr.IDs == nil || uint64(cap(fr.IDs)) < count {
			fr.IDs = make([]string, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			var id string
			if id, off, err = readID(src, off); err != nil {
				return 0, err
			}
			fr.IDs = append(fr.IDs, id)
		}
	default:
		return 0, ErrMalformed
	}
	return off, nil
}

// readUvarint decodes a uvarint at src[off:]. A buffer that ends
// mid-varint is ErrShort (binary.Uvarint only reports "buf too small"
// when fewer than the maximum varint width remain); a varint that
// overflows 64 bits is ErrMalformed.
func readUvarint(src []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(src[off:])
	if n > 0 {
		return v, off + n, nil
	}
	if n == 0 {
		return 0, off, ErrShort
	}
	return 0, off, ErrMalformed
}

// readID decodes a length-prefixed id at src[off:]; an empty one is
// malformed (ValidateID's rule, enforced before anything is applied).
func readID(src []byte, off int) (string, int, error) {
	id, end, err := readString(src, off)
	if err == nil && id == "" {
		return "", off, ErrMalformed
	}
	return id, end, err
}

// readString decodes a length-prefixed string at src[off:]. The
// allocation is capped by MaxIDLen and by the bytes actually present.
func readString(src []byte, off int) (string, int, error) {
	n, off, err := readUvarint(src, off)
	if err != nil {
		return "", off, err
	}
	if n > MaxIDLen {
		return "", off, ErrMalformed
	}
	if uint64(len(src)-off) < n {
		return "", off, ErrShort
	}
	end := off + int(n)
	return string(src[off:end]), end, nil
}

// readCoordinate decodes the inline coordinate layout at src[off:].
func readCoordinate(src []byte, off int) (coord.Coordinate, int, error) {
	if len(src)-off < 1 {
		return coord.Coordinate{}, off, ErrShort
	}
	dim := int(src[off])
	if dim > coord.MaxDimension {
		return coord.Coordinate{}, off, ErrMalformed
	}
	need := coord.EncodedSize(dim)
	if len(src)-off < need {
		return coord.Coordinate{}, off, ErrShort
	}
	c, _, err := coord.Decode(src[off : off+need])
	if err != nil {
		return coord.Coordinate{}, off, ErrMalformed
	}
	return c, off + need, nil
}

// BatchHeader fronts each batch of a binary /changes response: the
// body-level seq and epoch (mirroring the JSON body fields so epoch
// fencing survives empty batches) and the number of frames that follow.
type BatchHeader struct {
	Seq   uint64
	Epoch uint64
	Count uint64
}

// AppendBatchHeader appends the encoding of h to dst.
func AppendBatchHeader(dst []byte, h BatchHeader) []byte {
	dst = append(dst, MagicBatch, Version)
	dst = binary.AppendUvarint(dst, h.Seq)
	dst = binary.AppendUvarint(dst, h.Epoch)
	dst = binary.AppendUvarint(dst, h.Count)
	return dst
}

// DecodeBatchHeader parses a batch header from the front of src.
func DecodeBatchHeader(src []byte) (BatchHeader, int, error) {
	var h BatchHeader
	if len(src) < 2 {
		return h, 0, ErrShort
	}
	if src[0] != MagicBatch || src[1] != Version {
		return h, 0, ErrMalformed
	}
	off := 2
	var err error
	if h.Seq, off, err = readUvarint(src, off); err != nil {
		return h, 0, err
	}
	if h.Epoch, off, err = readUvarint(src, off); err != nil {
		return h, 0, err
	}
	if h.Count, off, err = readUvarint(src, off); err != nil {
		return h, 0, err
	}
	return h, off, nil
}
