package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
)

// Snapshot is a registry's state at one sequence: what a snapshot file
// holds and what a /snapshot response carries. The two share one body
// layout, little endian:
//
//	8 bytes  seq
//	8 bytes  epoch
//	8 bytes  tombstone floor
//	8 bytes  tombstone count
//	8 bytes  entry count
//	tombstones, each uvarint seq | uvarint id length | id bytes
//	entries, one upsert frame each (the frame's seq is the entry's own;
//	         epoch and publish stamp are zero)
//
// A file wraps the body in magic, generation and a CRC (internal/persist);
// a /snapshot response puts the envelope MagicSnapshot, snapshotVersion,
// flags, follower_of in front of it.
type Snapshot struct {
	// Seq is the change-stream sequence the state is exact at: a
	// consumer that installs it resumes the stream with since=Seq.
	Seq uint64
	// Epoch is the stream's fencing epoch at Seq.
	Epoch uint64
	// Delta marks a delta: Entries are the live entries changed after
	// TombstoneFloor, the consumer's resume point, and the consumer
	// keeps what they do not name. It is the envelope's flag on the
	// wire; a file always holds a full snapshot.
	Delta bool
	// TombstoneFloor is the sequence at or below which removal
	// knowledge is incomplete, and Tombstones are the removals the
	// producer remembers above it, oldest first: in a full snapshot its
	// whole tombstone ring, in a delta every removal after its floor.
	TombstoneFloor uint64
	Tombstones     []Tombstone
	// Entries are sorted by id.
	Entries []Entry
}

// SnapshotHeader is what precedes a /snapshot response's entry frames:
// the envelope and the body through its tombstones. Its Entries are
// nil; EntryCount frames follow it.
type SnapshotHeader struct {
	Snapshot
	FollowerOf string
	EntryCount uint64
}

// snapshotVersion is the /snapshot envelope's version. Version 1 put
// uvarint seq, epoch and a removed-id list where the body now is; such
// a header is refused as ErrMalformed rather than misread.
const snapshotVersion = 2

const snapshotFlagDelta = 0x01

// snapshotHeadSize is the body's fixed head: seq, epoch, tombstone
// floor, tombstone count, entry count.
const snapshotHeadSize = 40

// The smallest encodings of a tombstone (1 seq + 1 id length + 1 id
// byte) and of an entry frame (6 frame header + 2 id + 9 empty coord +
// 16 error and time): a count of either is untrusted, and these bound
// what the bytes can hold.
const (
	minTombstoneSize  = 3
	minEntryFrameSize = 33
)

// maxStreamHint caps the allocation a count read off a stream may
// size; the slice grows past it by append as the records really arrive.
const maxStreamHint = 1 << 16

var errTrailingBytes = errors.New("wire: bytes after the snapshot body")

// WriteSnapshotBody writes s's body to w. One scratch buffer is reused
// for every record, so the body is streamed, never materialised.
func WriteSnapshotBody(w io.Writer, s *Snapshot) error {
	return writeSnapshot(w, make([]byte, 0, 4096), s)
}

// WriteSnapshot writes a /snapshot frames response: the envelope, then
// s's body.
func WriteSnapshot(w io.Writer, followerOf string, s *Snapshot) error {
	if len(followerOf) > MaxIDLen {
		return errIDTooLong
	}
	var flags byte
	if s.Delta {
		flags |= snapshotFlagDelta
	}
	dst := append(make([]byte, 0, 4096), MagicSnapshot, snapshotVersion, flags)
	return writeSnapshot(w, appendString(dst, followerOf), s)
}

// writeSnapshot appends s's body head to dst, writes it, and then each
// entry frame through dst's storage.
func writeSnapshot(w io.Writer, dst []byte, s *Snapshot) error {
	for _, v := range []uint64{s.Seq, s.Epoch, s.TombstoneFloor, uint64(len(s.Tombstones)), uint64(len(s.Entries))} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	for _, t := range s.Tombstones {
		var err error
		dst = binary.AppendUvarint(dst, t.Seq)
		if dst, err = appendID(dst, t.ID); err != nil {
			return err
		}
	}
	if _, err := w.Write(dst); err != nil {
		return err
	}
	for i := range s.Entries {
		var err error
		if dst, err = AppendEntryFrame(dst[:0], &s.Entries[i]); err != nil {
			return err
		}
		if _, err := w.Write(dst); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSnapshot decodes a whole snapshot body, as a file holds it.
// Counts the bytes cannot hold are refused before they size anything,
// and bytes after the last entry are damage.
func DecodeSnapshot(body []byte) (Snapshot, error) {
	d := &Reader{buf: body, w: len(body)}
	var s Snapshot
	n, err := d.readSnapshotHead(&s)
	if err == nil {
		s.Entries, err = d.ReadSnapshotEntries(n)
	}
	if err == nil && d.r != d.w {
		err = errTrailingBytes
	}
	return s, err
}

// ReadSnapshotHeader decodes a /snapshot frames response up to its
// entries: the envelope, then the body's head and tombstones, so the
// EntryCount entry frames follow.
func (d *Reader) ReadSnapshotHeader() (SnapshotHeader, error) {
	var h SnapshotHeader
	err := d.decode(func(src []byte) (int, error) {
		if len(src) < 3 {
			return 0, ErrShort
		}
		if src[0] != MagicSnapshot || src[1] != snapshotVersion || src[2]&^snapshotFlagDelta != 0 {
			return 0, ErrMalformed
		}
		h.Delta = src[2]&snapshotFlagDelta != 0
		var off int
		var err error
		h.FollowerOf, off, err = readString(src, 3)
		return off, err
	})
	if err != nil {
		return h, inRecord(err)
	}
	h.EntryCount, err = d.readSnapshotHead(&h.Snapshot)
	return h, err
}

// readSnapshotHead reads a body's fixed head and tombstones into s and
// returns its entry count.
func (d *Reader) readSnapshotHead(s *Snapshot) (entries uint64, err error) {
	var tombs uint64
	err = d.decode(func(src []byte) (int, error) {
		if len(src) < snapshotHeadSize {
			return 0, ErrShort
		}
		s.Seq = binary.LittleEndian.Uint64(src)
		s.Epoch = binary.LittleEndian.Uint64(src[8:])
		s.TombstoneFloor = binary.LittleEndian.Uint64(src[16:])
		tombs = binary.LittleEndian.Uint64(src[24:])
		entries = binary.LittleEndian.Uint64(src[32:])
		return snapshotHeadSize, nil
	})
	if err != nil {
		return 0, inRecord(err)
	}
	hint, err := d.countHint(tombs, minTombstoneSize)
	if err != nil || tombs == 0 {
		return entries, err
	}
	s.Tombstones = make([]Tombstone, 0, hint)
	for i := uint64(0); i < tombs; i++ {
		var t Tombstone
		err := d.decode(func(src []byte) (off int, err error) {
			if t.Seq, off, err = readUvarint(src, 0); err != nil {
				return 0, err
			}
			t.ID, off, err = readID(src, off)
			return off, err
		})
		if err != nil {
			return 0, inRecord(err)
		}
		s.Tombstones = append(s.Tombstones, t)
	}
	return entries, nil
}

// ReadSnapshotEntries reads the n entry frames that follow a snapshot
// head. They come back strictly ascending by id: a producer's entries
// already are, which is checked and not assumed, and others get a
// stable sort keeping the last entry of each id — what installing them
// in order would leave.
func (d *Reader) ReadSnapshotEntries(n uint64) ([]Entry, error) {
	hint, err := d.countHint(n, minEntryFrameSize)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, hint)
	ascending := true
	var fr Frame
	for i := uint64(0); i < n; i++ {
		if err := d.ReadFrame(&fr); err != nil {
			return nil, inRecord(err)
		}
		if fr.Op != OpUpsert {
			return nil, ErrMalformed
		}
		if i > 0 && fr.ID <= entries[i-1].ID {
			ascending = false
		}
		entries = append(entries, fr.Entry())
	}
	if !ascending {
		// Reversed first, so the stable sort puts each id's last entry
		// at the head of its run, which is the one CompactFunc keeps.
		slices.Reverse(entries)
		slices.SortStableFunc(entries, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
		entries = slices.CompactFunc(entries, func(a, b Entry) bool { return a.ID == b.ID })
	}
	return entries, nil
}

// countHint is the capacity an untrusted count of records, each at
// least minSize bytes, may allocate. A reader holding its whole input
// refuses a count those bytes cannot hold; a stream's count sizes at
// most maxStreamHint records up front.
func (d *Reader) countHint(n uint64, minSize int) (int, error) {
	if d.src == nil {
		if n > uint64(len(d.window())/minSize) {
			return 0, ErrMalformed
		}
		return int(n), nil
	}
	return int(min(n, maxStreamHint)), nil
}

// inRecord reports a clean end of input inside a snapshot, where no
// record boundary may end it, as io.ErrUnexpectedEOF.
func inRecord(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
