package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"netcoord/internal/coord"
)

func sampleEvents() []Event {
	at := time.Unix(0, 1712345678901234567)
	return []Event{
		{Seq: 1, Op: OpUpsert, PubNs: 1712345678901234567, Epoch: 3, Entry: Entry{ID: "node-0001", Coord: coord.New(12.5, -3.25, 0.0625), Error: 0.15, UpdatedAt: at, Seq: 1}},
		{Seq: 2, Op: OpUpsert, Entry: Entry{ID: "h", Coord: coord.Coordinate{Vec: []float64{1e-7, 1e21, -1e-6, 0.1}, Height: 2.5}, UpdatedAt: time.Unix(0, -12345), Seq: 2}},
		{Seq: 4, Op: OpUpsert, Entry: Entry{ID: "edge", Coord: coord.Coordinate{Vec: []float64{}, Height: -1e-9}, Error: math.MaxFloat64, UpdatedAt: time.Unix(0, 7), Seq: 4}},
		{Seq: 5, Op: OpRemove, ID: "node-0001", PubNs: 50, Epoch: math.MaxUint64},
		{Seq: 6, Op: OpEvict, IDs: []string{"a", "b", "c"}},
		{Seq: 0, Op: OpRemove, ID: `quote"backslash\and<html>&`},
		{Seq: 8, Op: OpRemove, ID: "unicode-ü\u2028"},
	}
}

// sameEvent compares everything but the frame bytes.
func sameEvent(a, b Event) bool {
	a.frame, b.frame = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestEventFrameRoundTrip: event → frame bytes → event is lossless, the
// decoded event keeps exactly the bytes it was decoded from, and an
// event that carries its frame appends those bytes verbatim — the
// relay-forward guarantee.
func TestEventFrameRoundTrip(t *testing.T) {
	for i, ev := range sampleEvents() {
		if ev.Frame() != nil {
			t.Fatalf("event %d: hand-built event carries a frame", i)
		}
		buf, err := ev.Encode([]byte("prefix"))
		if err != nil {
			t.Fatalf("event %d: Encode: %v", i, err)
		}
		frame := ev.Frame()
		if !bytes.Equal(buf, append([]byte("prefix"), frame...)) || len(frame) == 0 {
			t.Fatalf("event %d: Encode kept %x of %x", i, frame, buf)
		}
		back, n, err := DecodeEvent(append(append([]byte(nil), frame...), 0xAA))
		if err != nil || n != len(frame) {
			t.Fatalf("event %d: DecodeEvent n=%d err=%v", i, n, err)
		}
		if !sameEvent(back, ev) {
			t.Fatalf("event %d round trip diverged:\n got %+v\nwant %+v", i, back, ev)
		}
		if !bytes.Equal(back.Frame(), frame) || cap(back.Frame()) != len(frame) {
			t.Fatalf("event %d: decoded event keeps %x (cap %d), want exactly %x", i, back.Frame(), cap(back.Frame()), frame)
		}
		// The carried bytes win over the fields: they are what was
		// published, and a relay must not re-derive them.
		back.Seq++
		again, err := back.AppendFrameTo([]byte("x"))
		if err != nil || !bytes.Equal(again[1:], frame) {
			t.Fatalf("event %d: AppendFrameTo re-encoded instead of copying (err %v)", i, err)
		}
	}
}

// TestEventEncodeRefusesUnframeable: an event the id rule or the
// dimension cap excludes gets no frame, and says why.
func TestEventEncodeRefusesUnframeable(t *testing.T) {
	for name, ev := range map[string]Event{
		"empty upsert id": {Op: OpUpsert, Seq: 1},
		"empty remove id": {Op: OpRemove, Seq: 1},
		"empty eviction":  {Op: OpEvict, Seq: 1},
		"dimension":       {Op: OpUpsert, Seq: 1, Entry: Entry{ID: "x", Coord: coord.Coordinate{Vec: make([]float64, coord.MaxDimension+1)}}},
		"no op":           {Seq: 1, ID: "x"},
	} {
		if _, err := ev.Encode(nil); err == nil || ev.Frame() != nil {
			t.Errorf("%s: Encode err=%v frame=%x, want an error and no frame", name, err, ev.Frame())
		}
	}
}

// TestEventJSONShape pins the rendering rules the golden /changes and
// /snapshot bodies (internal/server/testdata) depend on: ops by name,
// the entry-level seq omitted inside an event and present in a bare
// entry, zero-valued optional fields omitted, and non-finite floats
// refused exactly as encoding/json refuses them.
func TestEventJSONShape(t *testing.T) {
	evs := sampleEvents()
	for i, want := range []string{
		`{"seq":1,"op":"upsert","entry":{"id":"node-0001","coord":{"vec":[12.5,-3.25,0.0625]},"error":0.15,"updated_at_unix_nano":1712345678901234567},"pub_ns":1712345678901234567,"epoch":3}`,
		`{"seq":2,"op":"upsert","entry":{"id":"h","coord":{"vec":[1e-7,1e+21,-0.000001,0.1],"height":2.5},"updated_at_unix_nano":-12345}}`,
		`{"seq":4,"op":"upsert","entry":{"id":"edge","coord":{"vec":[],"height":-1e-9},"error":1.7976931348623157e+308,"updated_at_unix_nano":7}}`,
		`{"seq":5,"op":"remove","id":"node-0001","pub_ns":50,"epoch":18446744073709551615}`,
		`{"seq":6,"op":"evict","ids":["a","b","c"]}`,
		`{"seq":0,"op":"remove","id":"quote\"backslash\\and\u003chtml\u003e\u0026"}`,
		`{"seq":8,"op":"remove","id":"unicode-ü\u2028"}`,
	} {
		got, err := json.Marshal(evs[i])
		if err != nil || string(got) != want {
			t.Errorf("event %d:\n got %s (err %v)\nwant %s", i, got, err, want)
		}
	}
	got, err := json.Marshal(evs[0].Entry)
	if want := `{"id":"node-0001","coord":{"vec":[12.5,-3.25,0.0625]},"error":0.15,"updated_at_unix_nano":1712345678901234567,"seq":1}`; err != nil || string(got) != want {
		t.Errorf("entry:\n got %s (err %v)\nwant %s", got, err, want)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		ev := Event{Seq: 1, Op: OpUpsert, Entry: Entry{ID: "x", Coord: coord.New(1, 2, bad)}}
		if _, err := json.Marshal(ev); err == nil {
			t.Errorf("Marshal accepted non-finite component %v", bad)
		}
	}
}

// FuzzEventEncode drives the encode direction with hostile field
// values: Encode either refuses the event (exactly when the id rule or
// the dimension cap says so) or produces a frame DecodeEvent maps back
// to the same event, keeping the same bytes.
func FuzzEventEncode(f *testing.F) {
	f.Add(uint64(1), byte(OpUpsert), "node-1", 1.5, 2.5, 0.1, int64(123), uint64(0))
	f.Add(uint64(2), byte(OpRemove), "we\"ird<id>", 0.0, 0.0, 0.0, int64(-1), uint64(3))
	f.Add(uint64(3), byte(OpEvict), "\x00\x7f\xff", 1e-7, 1e21, math.Copysign(0, -1), int64(0), uint64(1))
	f.Fuzz(func(t *testing.T, seq uint64, op byte, id string, x, h, errw float64, ns int64, epoch uint64) {
		ev := Event{Seq: seq, Op: op, Epoch: epoch}
		if ns > 0 {
			ev.PubNs = ns // frames clamp a negative stamp to zero
		}
		switch op {
		case OpUpsert:
			ev.Entry = Entry{ID: id, Coord: coord.Coordinate{Vec: []float64{x, x / 3}, Height: h}, Error: errw, UpdatedAt: time.Unix(0, ns), Seq: seq}
		case OpEvict:
			ev.IDs = []string{"first", id}
		default:
			ev.ID = id
		}
		framable := (op == OpUpsert || op == OpRemove || op == OpEvict) && ValidateID(id) == nil
		buf, err := ev.Encode(nil)
		if (err == nil) != framable {
			t.Fatalf("Encode err = %v, framable = %v", err, framable)
		}
		if err != nil {
			return
		}
		back, n, err := DecodeEvent(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("DecodeEvent of an encoded event: n=%d err=%v", n, err)
		}
		// Compare by re-encoding: byte equality is NaN-safe.
		back.frame = nil
		again, err := back.Encode(nil)
		if err != nil || !bytes.Equal(again, buf) {
			t.Fatalf("re-encoding diverged (err %v):\n first %x\nsecond %x", err, buf, again)
		}
	})
}

func TestDecodeEventErrors(t *testing.T) {
	ev := sampleEvents()[0]
	buf, err := ev.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeEvent(buf[:len(buf)-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("truncated: %v, want ErrShort", err)
	}
	buf[0] = 0
	if _, _, err := DecodeEvent(buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: %v, want ErrMalformed", err)
	}
}
