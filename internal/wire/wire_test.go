package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"netcoord/internal/coord"
)

func sampleFrames() []Frame {
	return []Frame{
		{
			Op:          OpUpsert,
			Seq:         1,
			Epoch:       3,
			PubNs:       1_700_000_000_123_456_789,
			ID:          "node-0001",
			Coord:       coord.Coordinate{Vec: []float64{1.5, -2.25, 1e-9}, Height: 0.125},
			Error:       0.42,
			UpdatedAtNs: 1_700_000_000_000_000_000,
		},
		{
			Op:    OpUpsert,
			Seq:   math.MaxUint64,
			Epoch: 0,
			ID:    "z",
			Coord: coord.Coordinate{},
		},
		{
			Op:          OpUpsert,
			Seq:         7,
			ID:          "n",
			Coord:       coord.Coordinate{Vec: make([]float64, coord.MaxDimension), Height: -1},
			Error:       math.Inf(1),
			UpdatedAtNs: -5,
		},
		{Op: OpRemove, Seq: 2, Epoch: 1, PubNs: 99, ID: "gone"},
		{Op: OpRemove, Seq: 3, ID: "\x00"},
		{Op: OpEvict, Seq: 4, Epoch: 2, IDs: []string{"a", "b", "longer-id-here"}},
		{Op: OpEvict, Seq: 5, IDs: []string{"only"}},
	}
}

func framesEqual(a, b *Frame) bool {
	if a.Op != b.Op || a.Seq != b.Seq || a.Epoch != b.Epoch || a.PubNs != b.PubNs ||
		a.ID != b.ID || a.UpdatedAtNs != b.UpdatedAtNs {
		return false
	}
	if math.Float64bits(a.Error) != math.Float64bits(b.Error) {
		return false
	}
	if math.Float64bits(a.Coord.Height) != math.Float64bits(b.Coord.Height) {
		return false
	}
	if len(a.Coord.Vec) != len(b.Coord.Vec) {
		return false
	}
	for i := range a.Coord.Vec {
		if math.Float64bits(a.Coord.Vec[i]) != math.Float64bits(b.Coord.Vec[i]) {
			return false
		}
	}
	if len(a.IDs) != len(b.IDs) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	for _, fr := range sampleFrames() {
		buf, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("AppendFrame(%+v): %v", fr, err)
		}
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		want := fr
		if want.Coord.Vec == nil && got.Coord.Vec != nil && len(got.Coord.Vec) == 0 {
			// a zero-dimension coordinate decodes to an empty vector
			want.Coord.Vec = got.Coord.Vec
		}
		if want.IDs == nil && len(got.IDs) == 0 {
			want.IDs = got.IDs
		}
		if !framesEqual(&got, &want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestFrameRoundTripConcatenated(t *testing.T) {
	frames := sampleFrames()
	var buf []byte
	for i := range frames {
		var err error
		buf, err = AppendFrame(buf, &frames[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	var fr Frame
	for i := range frames {
		n, err := DecodeFrameInto(&fr, buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Seq != frames[i].Seq || fr.Op != frames[i].Op {
			t.Fatalf("frame %d: got seq=%d op=%d", i, fr.Seq, fr.Op)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d", off, len(buf))
	}
}

// TestFrameTruncationEveryOffset feeds every proper prefix of every
// encoded frame to the decoder: each must fail with ErrShort (never
// ErrMalformed, never success, never a panic).
func TestFrameTruncationEveryOffset(t *testing.T) {
	for _, fr := range sampleFrames() {
		buf, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			_, _, err := DecodeFrame(buf[:cut])
			if !errors.Is(err, ErrShort) {
				t.Fatalf("op=%d cut=%d/%d: got %v, want ErrShort", fr.Op, cut, len(buf), err)
			}
		}
	}
}

func TestFrameDecodeRejectsDamage(t *testing.T) {
	good, err := AppendFrame(nil, &Frame{Op: OpUpsert, Seq: 1, ID: "x", Coord: coord.New(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad magic":   append([]byte{0x00}, good[1:]...),
		"bad version": append([]byte{MagicFrame, 99}, good[2:]...),
		"bad op":      append([]byte{MagicFrame, Version, 77}, good[3:]...),
	}
	for name, buf := range cases {
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// TestHostileLengthPrefixes confirms that attacker-controlled length
// fields cannot drive large allocations: oversized id lengths and
// oversized list counts are rejected before any allocation sized from
// them, and a short-but-plausible length is ErrShort, not a read past
// the buffer.
func TestHostileLengthPrefixes(t *testing.T) {
	header := func(op byte, seq, epoch, pub uint64) []byte {
		b := []byte{MagicFrame, Version, op}
		b = binary.AppendUvarint(b, seq)
		b = binary.AppendUvarint(b, epoch)
		b = binary.AppendUvarint(b, pub)
		return b
	}

	t.Run("id length over cap", func(t *testing.T) {
		buf := header(OpRemove, 1, 0, 0)
		buf = binary.AppendUvarint(buf, MaxIDLen+1)
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrMalformed) {
			t.Fatalf("got %v, want ErrMalformed", err)
		}
	})
	t.Run("id length huge", func(t *testing.T) {
		buf := header(OpRemove, 1, 0, 0)
		buf = binary.AppendUvarint(buf, math.MaxUint64/2)
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrMalformed) {
			t.Fatalf("got %v, want ErrMalformed", err)
		}
	})
	t.Run("id length beyond buffer", func(t *testing.T) {
		buf := header(OpRemove, 1, 0, 0)
		buf = binary.AppendUvarint(buf, 100)
		buf = append(buf, "only-a-few"...)
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrShort) {
			t.Fatalf("got %v, want ErrShort", err)
		}
	})
	t.Run("evict count over cap", func(t *testing.T) {
		buf := header(OpEvict, 1, 0, 0)
		buf = binary.AppendUvarint(buf, MaxListLen+1)
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrMalformed) {
			t.Fatalf("got %v, want ErrMalformed", err)
		}
	})
	t.Run("evict count beyond buffer", func(t *testing.T) {
		buf := header(OpEvict, 1, 0, 0)
		buf = binary.AppendUvarint(buf, 1000)
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrShort) {
			t.Fatalf("got %v, want ErrShort", err)
		}
	})
	t.Run("dimension over cap", func(t *testing.T) {
		buf := header(OpUpsert, 1, 0, 0)
		buf = binary.AppendUvarint(buf, 1)
		buf = append(buf, 'x')
		buf = append(buf, coord.MaxDimension+1)
		if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrMalformed) {
			t.Fatalf("got %v, want ErrMalformed", err)
		}
	})
	t.Run("pub_ns overflows int64", func(t *testing.T) {
		b := []byte{MagicFrame, Version, OpRemove}
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, math.MaxUint64)
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("got %v, want ErrMalformed", err)
		}
	})
}

// TestIDRule: the one id rule (1..MaxIDLen bytes, evictions list at
// least one id) holds in both directions — AppendFrame refuses to
// produce such a frame, and a hand-built one is ErrMalformed before a
// consumer can apply it.
func TestIDRule(t *testing.T) {
	long := string(make([]byte, MaxIDLen+1))
	max := string(make([]byte, MaxIDLen))
	header := []byte{MagicFrame, Version, 0, 1, 0, 0} // op patched in; seq 1, epoch 0, pub_ns 0
	handBuilt := func(op byte, body ...byte) []byte {
		b := append([]byte(nil), header...)
		b[2] = op
		return append(b, body...)
	}
	upsertTail := make([]byte, 1+8+16) // dimension 0, height, error, updated_at
	cases := []struct {
		name    string
		fr      Frame
		ok      bool
		hostile []byte // the frame a peer without the encode check would send
	}{
		{name: "upsert", fr: Frame{Op: OpUpsert, ID: "a"}, ok: true},
		{name: "upsert max id", fr: Frame{Op: OpUpsert, ID: max}, ok: true},
		{name: "upsert empty id", fr: Frame{Op: OpUpsert, ID: ""}, hostile: handBuilt(OpUpsert, append([]byte{0}, upsertTail...)...)},
		{name: "upsert long id", fr: Frame{Op: OpUpsert, ID: long}},
		{name: "remove", fr: Frame{Op: OpRemove, ID: "a"}, ok: true},
		{name: "remove empty id", fr: Frame{Op: OpRemove, ID: ""}, hostile: handBuilt(OpRemove, 0)},
		{name: "remove long id", fr: Frame{Op: OpRemove, ID: long}},
		{name: "evict", fr: Frame{Op: OpEvict, IDs: []string{"a", "b"}}, ok: true},
		{name: "evict nothing", fr: Frame{Op: OpEvict}, hostile: handBuilt(OpEvict, 0)},
		{name: "evict an empty id", fr: Frame{Op: OpEvict, IDs: []string{"a", ""}}, hostile: handBuilt(OpEvict, 2, 1, 'a', 0)},
		{name: "evict a long id", fr: Frame{Op: OpEvict, IDs: []string{long}}},
	}
	for _, c := range cases {
		c.fr.Seq = 1
		buf, err := AppendFrame(nil, &c.fr)
		if (err == nil) != c.ok {
			t.Errorf("%s: AppendFrame err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok {
			if _, n, derr := DecodeFrame(buf); derr != nil || n != len(buf) {
				t.Errorf("%s: DecodeFrame n=%d err=%v", c.name, n, derr)
			}
		}
		if c.hostile != nil {
			if _, _, derr := DecodeFrame(c.hostile); !errors.Is(derr, ErrMalformed) {
				t.Errorf("%s: hand-built frame decoded with err %v, want ErrMalformed", c.name, derr)
			}
		}
	}
	for id, ok := range map[string]bool{"": false, "a": true, max: true, long: false} {
		if err := ValidateID(id); (err == nil) != ok {
			t.Errorf("ValidateID(len %d) = %v, want ok=%v", len(id), err, ok)
		}
	}
	// The snapshot header's removed list is ids too; its follower_of is
	// free text and may be empty.
	if _, err := AppendSnapshotHeader(nil, &SnapshotHeader{Removed: []string{""}}); err == nil {
		t.Error("snapshot header accepted an empty removed id")
	}
	hdr := []byte{MagicSnapshot, Version, 0, 1, 0, 0, 1, 0, 0} // seq 1, epoch 0, follower_of "", 1 removed id of length 0, 0 entries
	if _, _, err := DecodeSnapshotHeader(hdr); !errors.Is(err, ErrMalformed) {
		t.Errorf("snapshot header with an empty removed id decoded with err %v, want ErrMalformed", err)
	}
}

func TestAppendFrameValidates(t *testing.T) {
	long := make([]byte, MaxIDLen+1)
	if _, err := AppendFrame(nil, &Frame{Op: OpRemove, ID: string(long)}); err == nil {
		t.Fatal("oversized id accepted")
	}
	if _, err := AppendFrame(nil, &Frame{Op: 0}); err == nil {
		t.Fatal("zero op accepted")
	}
	big := coord.Coordinate{Vec: make([]float64, coord.MaxDimension+1)}
	if _, err := AppendFrame(nil, &Frame{Op: OpUpsert, ID: "x", Coord: big}); err == nil {
		t.Fatal("oversized dimension accepted")
	}
}

func TestBatchHeaderRoundTrip(t *testing.T) {
	h := BatchHeader{Seq: 12345, Epoch: 7, Count: 42}
	buf := AppendBatchHeader(nil, h)
	got, n, err := DecodeBatchHeader(buf)
	if err != nil || n != len(buf) || got != h {
		t.Fatalf("got %+v n=%d err=%v", got, n, err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeBatchHeader(buf[:cut]); !errors.Is(err, ErrShort) {
			t.Fatalf("cut=%d: got %v, want ErrShort", cut, err)
		}
	}
}

func TestSnapshotHeaderRoundTrip(t *testing.T) {
	cases := []SnapshotHeader{
		{Seq: 9, Epoch: 2, Delta: true, FollowerOf: "http://leader", Removed: []string{"a", "b"}, EntryCount: 3},
		{Seq: 0, Epoch: 0, Delta: false, FollowerOf: "", Removed: nil, EntryCount: 0},
	}
	for _, h := range cases {
		buf, err := AppendSnapshotHeader(nil, &h)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeSnapshotHeader(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if got.Seq != h.Seq || got.Epoch != h.Epoch || got.Delta != h.Delta ||
			got.FollowerOf != h.FollowerOf || got.EntryCount != h.EntryCount ||
			len(got.Removed) != len(h.Removed) {
			t.Fatalf("got %+v, want %+v", got, h)
		}
		for i := range h.Removed {
			if got.Removed[i] != h.Removed[i] {
				t.Fatalf("removed[%d] = %q", i, got.Removed[i])
			}
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := DecodeSnapshotHeader(buf[:cut]); !errors.Is(err, ErrShort) {
				t.Fatalf("cut=%d: got %v, want ErrShort", cut, err)
			}
		}
	}
}

// oneByteReader doles out a single byte per Read to exercise every
// refill path in the stream reader.
type oneByteReader struct{ rest []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		return 0, io.EOF
	}
	p[0] = r.rest[0]
	r.rest = r.rest[1:]
	return 1, nil
}

func TestStreamReaderDecodesDribbledInput(t *testing.T) {
	frames := sampleFrames()
	hdr := SnapshotHeader{Seq: 10, Epoch: 1, FollowerOf: "up", Removed: []string{"r1", "r2"}, EntryCount: uint64(len(frames))}
	buf, err := AppendSnapshotHeader(nil, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if buf, err = AppendFrame(buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	d := NewReader(&oneByteReader{rest: buf}, 4)
	got, err := d.ReadSnapshotHeader()
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if got.Seq != hdr.Seq || got.EntryCount != hdr.EntryCount || len(got.Removed) != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	var fr Frame
	for i := range frames {
		if err := d.ReadFrame(&fr); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Seq != frames[i].Seq {
			t.Fatalf("frame %d: seq %d", i, fr.Seq)
		}
	}
	if err := d.ReadFrame(&fr); err != io.EOF {
		t.Fatalf("tail: got %v, want io.EOF", err)
	}
}

func TestStreamReaderPartialRecordAtEOF(t *testing.T) {
	fr := Frame{Op: OpUpsert, Seq: 1, ID: "node", Coord: coord.New(1, 2, 3)}
	buf, err := AppendFrame(nil, &fr)
	if err != nil {
		t.Fatal(err)
	}
	d := NewReader(bytes.NewReader(buf[:len(buf)-3]), 16)
	var got Frame
	if err := d.ReadFrame(&got); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestStreamReaderEvictReusesIDBacking(t *testing.T) {
	var buf []byte
	var err error
	for i := 0; i < 3; i++ {
		if buf, err = AppendFrame(buf, &Frame{Op: OpEvict, Seq: uint64(i + 1), IDs: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	d := NewReader(bytes.NewReader(buf), 16)
	var fr Frame
	if err := d.ReadFrame(&fr); err != nil {
		t.Fatal(err)
	}
	first := cap(fr.IDs)
	for i := 1; i < 3; i++ {
		if err := d.ReadFrame(&fr); err != nil {
			t.Fatal(err)
		}
		if cap(fr.IDs) != first {
			t.Fatalf("IDs backing reallocated: cap %d -> %d", first, cap(fr.IDs))
		}
	}
}

// TestReadBatchStreamsBatches reads a /changes body of three batches —
// one empty — through a one-byte reader and a four-byte initial window,
// so every frame is decoded across refills that move the window. Every
// event read earlier must still carry its own frame bytes and fields
// after the later batches went through the window, an evict's ids
// included, and the body must end in io.EOF at the batch boundary.
func TestReadBatchStreamsBatches(t *testing.T) {
	frames := sampleFrames()
	parts := [][]Frame{frames[0:3], nil, frames[3:7]}
	var body []byte
	var encoded [][]byte
	for i, part := range parts {
		body = AppendBatchHeader(body, BatchHeader{Seq: uint64(10 + i), Epoch: 2, Count: uint64(len(part))})
		for j := range part {
			start := len(body)
			var err error
			if body, err = AppendFrame(body, &part[j]); err != nil {
				t.Fatal(err)
			}
			encoded = append(encoded, body[start:])
		}
	}
	d := NewReader(&oneByteReader{rest: body}, 4)
	var slab Slab
	var all []Event
	for i, part := range parts {
		hdr, evs, err := d.ReadBatch(all, &slab)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if hdr.Seq != uint64(10+i) || hdr.Epoch != 2 || hdr.Count != uint64(len(part)) || len(evs) != len(all)+len(part) {
			t.Fatalf("batch %d: header %+v with %d events, want %d", i, hdr, len(evs)-len(all), len(part))
		}
		all = evs
	}
	if _, _, err := d.ReadBatch(nil, &slab); err != io.EOF {
		t.Fatalf("after the last batch: %v, want io.EOF", err)
	}
	for i := range all {
		if !bytes.Equal(all[i].Frame(), encoded[i]) {
			t.Fatalf("event %d frame %x, want %x", i, all[i].Frame(), encoded[i])
		}
		want, _, err := DecodeEvent(encoded[i])
		if err != nil {
			t.Fatal(err)
		}
		got := all[i]
		if got.Seq != want.Seq || got.Op != want.Op || got.ID != want.ID || got.Entry.ID != want.Entry.ID ||
			!got.Entry.Coord.Equal(want.Entry.Coord) || got.PubNs != want.PubNs || len(got.IDs) != len(want.IDs) {
			t.Fatalf("event %d: %+v, want %+v", i, got, want)
		}
		for j := range got.IDs {
			if got.IDs[j] != want.IDs[j] {
				t.Fatalf("event %d ids %q, want %q", i, got.IDs, want.IDs)
			}
		}
	}
}

// TestReadBatchCutInsideABatch cuts a two-batch body at every offset.
// The first batch reads whole at any cut at or after its end; a cut
// exactly at the boundary is a clean io.EOF, and a cut anywhere inside
// the second batch — after its header or between its frames too — is
// io.ErrUnexpectedEOF with nothing of that batch returned.
func TestReadBatchCutInsideABatch(t *testing.T) {
	frames := sampleFrames()
	body := AppendBatchHeader(nil, BatchHeader{Seq: 2, Count: 2})
	var err error
	for i := 0; i < 2; i++ {
		if body, err = AppendFrame(body, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	first := len(body)
	body = AppendBatchHeader(body, BatchHeader{Seq: 5, Count: 3})
	for i := 3; i < 6; i++ {
		if body, err = AppendFrame(body, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	for cut := first; cut < len(body); cut++ {
		d := NewReader(bytes.NewReader(body[:cut]), 16)
		var slab Slab
		if _, evs, err := d.ReadBatch(nil, &slab); err != nil || len(evs) != 2 {
			t.Fatalf("cut at %d: first batch %d events, %v", cut, len(evs), err)
		}
		want := io.ErrUnexpectedEOF
		if cut == first {
			want = io.EOF
		}
		if _, evs, err := d.ReadBatch(nil, &slab); err != want || len(evs) != 0 {
			t.Fatalf("cut at %d: second batch %d events, %v; want none, %v", cut, len(evs), err, want)
		}
	}
}
