package wire

import (
	"errors"
	"io"
)

// maxStreamBuffer caps how far the stream reader will grow its window
// chasing a single record. The largest honest record is an evict frame
// of a few thousand ids; anything forcing the window past this bound is
// treated as damage rather than buffered indefinitely.
const maxStreamBuffer = 8 << 20

// ErrStreamTooLarge reports a record that kept demanding more bytes
// past maxStreamBuffer.
var ErrStreamTooLarge = errors.New("wire: record exceeds stream buffer cap")

// Reader incrementally decodes wire records from an io.Reader, refilling
// an internal window on ErrShort so a snapshot of a hundred thousand
// entries never needs to be buffered whole. The zero value is not
// usable; construct with NewReader. DecodeSnapshot runs one over a
// byte slice instead: no source, and the window is the whole input.
type Reader struct {
	src  io.Reader // nil when the window already holds all the input
	buf  []byte
	r, w int
}

// NewReader wraps src with the given initial window size (a sensible
// default is used when size is zero or negative).
func NewReader(src io.Reader, size int) *Reader {
	if size <= 0 {
		size = 64 << 10
	}
	return &Reader{src: src, buf: make([]byte, size)}
}

// window returns the currently buffered, undecoded bytes.
func (d *Reader) window() []byte { return d.buf[d.r:d.w] }

// more compacts the window to the front of the buffer, growing it when
// full, and reads at least one more byte from the source. io.EOF is
// returned verbatim only at a record boundary; a partial record at EOF
// surfaces as io.ErrUnexpectedEOF from the decode methods.
func (d *Reader) more() error {
	if d.src == nil {
		return io.EOF
	}
	if d.r > 0 {
		n := copy(d.buf, d.buf[d.r:d.w])
		d.r, d.w = 0, n
	}
	if d.w == len(d.buf) {
		if len(d.buf)*2 > maxStreamBuffer {
			return ErrStreamTooLarge
		}
		grown := make([]byte, len(d.buf)*2)
		d.w = copy(grown, d.buf[:d.w])
		d.buf = grown
	}
	n, err := d.src.Read(d.buf[d.w:])
	d.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// decode runs fn over the buffered window, refilling on ErrShort, and
// advances past the consumed bytes on success.
func (d *Reader) decode(fn func([]byte) (int, error)) error {
	for {
		n, err := fn(d.window())
		if err == nil {
			d.r += n
			return nil
		}
		if !errors.Is(err, ErrShort) {
			return err
		}
		if ferr := d.more(); ferr != nil {
			if ferr == io.EOF {
				if d.r == d.w {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return ferr
		}
	}
}

// ReadFrame decodes the next frame into fr, reusing its backing storage
// where DecodeFrameInto can. It returns io.EOF cleanly when the stream
// ends exactly at a frame boundary.
func (d *Reader) ReadFrame(fr *Frame) error {
	return d.decode(func(src []byte) (int, error) {
		return DecodeFrameInto(fr, src)
	})
}

// slabChunk sizes the chunks a Slab starts: the frames of some 900
// heartbeats share one allocation, as they do in the publishing feed.
const slabChunk = 64 << 10

// Slab is append-only storage for frame bytes that must outlive a
// Reader's window. ReadBatch copies each frame into it and the event
// keeps a view of the copy; bytes once handed out are never written
// again, so a Slab can serve every batch of every stream its owner
// reads. The zero value is ready to use.
type Slab struct{ buf []byte }

// keep copies b into the slab and returns the copy, capacity-capped so
// no append through it can reach the slab's next frame.
func (s *Slab) keep(b []byte) []byte {
	if cap(s.buf)-len(s.buf) < len(b) {
		s.buf = make([]byte, 0, max(slabChunk, len(b)))
	}
	start := len(s.buf)
	s.buf = append(s.buf, b...)
	return s.buf[start:len(s.buf):len(s.buf)]
}

// ReadBatch reads one /changes batch: a batch header and the Count
// frames behind it, appended to evs as events. Each frame is decoded
// once, in the window, and its bytes are copied into slab: the events
// point into slab, never into the window the next read reuses. The
// batch comes back whole or not at all (on an error evs is returned as
// it was passed): io.EOF means the stream ended cleanly before a
// header, and a stream that ends anywhere inside a batch is
// io.ErrUnexpectedEOF. A frames /changes body is one or more batches
// back to back, so a caller reads until io.EOF.
func (d *Reader) ReadBatch(evs []Event, slab *Slab) (BatchHeader, []Event, error) {
	var hdr BatchHeader
	err := d.decode(func(src []byte) (int, error) {
		var n int
		var err error
		hdr, n, err = DecodeBatchHeader(src)
		return n, err
	})
	if err != nil {
		return hdr, evs, err
	}
	had := len(evs)
	for i := uint64(0); i < hdr.Count; i++ {
		var ev Event
		err := d.decode(func(src []byte) (int, error) {
			var fr Frame
			n, err := DecodeFrameInto(&fr, src)
			if err == nil {
				ev = eventOf(&fr, slab.keep(src[:n]))
			}
			return n, err
		})
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return hdr, evs[:had], err
		}
		evs = append(evs, ev)
	}
	return hdr, evs, nil
}
