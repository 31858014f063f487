package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeFrame hammers the frame decoder with arbitrary bytes. Any
// input must either fail cleanly with ErrShort/ErrMalformed or decode
// into a frame whose re-encoding is idempotent: encoding the decoded
// frame and decoding that again yields byte-identical encodings and an
// equal frame. Byte-level comparison of the encodings keeps the check
// NaN-safe, mirroring internal/coord/fuzz_test.go. (Equality with the
// raw input is deliberately not required — varints admit non-canonical
// encodings that re-encode shorter.)
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		buf, err := AppendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		for _, cut := range []int{1, 3, 7, len(buf) / 2, len(buf) - 1} {
			if cut >= 0 && cut < len(buf) {
				f.Add(buf[:cut])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{MagicFrame})
	f.Add([]byte{MagicFrame, Version, OpUpsert, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, src []byte) {
		fr, n, err := DecodeFrame(src)
		if err != nil {
			if !errors.Is(err, ErrShort) && !errors.Is(err, ErrMalformed) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n <= 0 || n > len(src) {
			t.Fatalf("consumed %d of %d bytes", n, len(src))
		}
		enc1, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		fr2, n2, err := DecodeFrame(enc1)
		if err != nil || n2 != len(enc1) {
			t.Fatalf("decode of re-encoding failed: n=%d err=%v", n2, err)
		}
		enc2, err := AppendFrame(nil, &fr2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encoding not idempotent:\n first %x\nsecond %x", enc1, enc2)
		}
		if !framesEqual(&fr, &fr2) {
			t.Fatalf("decoded frames differ:\n first %+v\nsecond %+v", fr, fr2)
		}
	})
}

// FuzzDecodeHeaders applies the same discipline to the batch header
// and to the snapshot envelope and body: a /snapshot header read off a
// stream, and the same bytes decoded as a whole body the way a
// snapshot file is. A decoded header re-encodes to an equal one, and no
// tombstone or entry count sizes an allocation past what the bytes
// could hold (or, on a stream, past maxStreamHint records).
func FuzzDecodeHeaders(f *testing.F) {
	b := AppendBatchHeader(nil, BatchHeader{Seq: 5, Epoch: 2, Count: 9})
	f.Add(b)
	tombs := []Tombstone{{Seq: 4, ID: "x"}, {Seq: 6, ID: "gone"}}
	for _, c := range []struct {
		followerOf string
		s          Snapshot
	}{
		{"up", Snapshot{Seq: 7, Epoch: 1, Delta: true, TombstoneFloor: 3, Tombstones: tombs, Entries: []Entry{{ID: "a", Seq: 5}}}},
		{"", Snapshot{Seq: 7, Epoch: 1, TombstoneFloor: 2, Tombstones: tombs, Entries: []Entry{{ID: "a", Seq: 5}, {ID: "b", Seq: 7}}}},
	} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, c.followerOf, &c.s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		buf.Reset()
		if err := WriteSnapshotBody(&buf, &c.s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{MagicBatch, Version})
	f.Add([]byte{MagicSnapshot, snapshotVersion, 0xff})

	f.Fuzz(func(t *testing.T, src []byte) {
		if h, n, err := DecodeBatchHeader(src); err == nil {
			if n <= 0 || n > len(src) {
				t.Fatalf("batch consumed %d of %d", n, len(src))
			}
			enc := AppendBatchHeader(nil, h)
			if h2, _, err := DecodeBatchHeader(enc); err != nil || h2 != h {
				t.Fatalf("batch re-encode mismatch: %+v vs %+v (%v)", h, h2, err)
			}
		} else if !errors.Is(err, ErrShort) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("batch: unexpected error class: %v", err)
		}
		if h, err := NewReader(bytes.NewReader(src), 0).ReadSnapshotHeader(); err == nil {
			if cap(h.Tombstones) > maxStreamHint || uint64(len(h.Tombstones)) > uint64(len(src)/minTombstoneSize) {
				t.Fatalf("snapshot header: %d tombstones, capacity %d, from %d bytes", len(h.Tombstones), cap(h.Tombstones), len(src))
			}
			var enc bytes.Buffer
			if err := WriteSnapshot(&enc, h.FollowerOf, &h.Snapshot); err != nil {
				t.Fatalf("snapshot re-encode failed: %v", err)
			}
			h2, err := NewReader(&enc, 0).ReadSnapshotHeader()
			if err != nil || enc.Len() != 0 {
				t.Fatalf("snapshot re-decode failed: %v (%d bytes left)", err, enc.Len())
			}
			if !reflect.DeepEqual(h2.Snapshot, h.Snapshot) || h2.FollowerOf != h.FollowerOf || h2.EntryCount != 0 {
				t.Fatalf("snapshot header mismatch: %+v vs %+v", h, h2)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("snapshot: unexpected error class: %v", err)
		}
		if s, err := DecodeSnapshot(src); err == nil {
			if cap(s.Tombstones)*minTombstoneSize+cap(s.Entries)*minEntryFrameSize+snapshotHeadSize > len(src) {
				t.Fatalf("snapshot body: capacities %d tombstones, %d entries from %d bytes", cap(s.Tombstones), cap(s.Entries), len(src))
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) && !errors.Is(err, errTrailingBytes) {
			t.Fatalf("snapshot body: unexpected error class: %v", err)
		}
	})
}
