package netcoord

import (
	"encoding/json"
	"strconv"

	"netcoord/internal/coord"
)

// This file is the encode-once JSON path for change events. Serving a
// change stream used to pay one json.Marshal — reflection, interface
// boxing, a fresh buffer — per event per subscriber. ChangeEvent now
// marshals through a hand-rolled appender that writes into one []byte
// with no reflection, and the result is stored in the event's shared
// encode cache, so a fan-out of N subscribers serializes each event
// exactly once and N-1 of them just copy bytes.
//
// The appender reproduces encoding/json's output byte for byte for the
// shapes a change event can take (same field order, same omitempty
// decisions, same float and string formatting); anything it cannot
// render identically — a string needing escapes, a non-finite float —
// falls back to encoding/json itself, so the output is ALWAYS exactly
// what the stdlib would have produced. TestChangeEventJSONMatchesStdlib
// holds that equivalence.

// changeEventJSON is ChangeEvent stripped of its methods, so the
// fallback can use the stdlib encoder without recursing into
// MarshalJSON.
type changeEventJSON ChangeEvent

// MarshalJSON renders the event exactly as encoding/json would render
// its fields, serving cached bytes when the event carries the shared
// encode cache. A labelled coalesce gap (Coalesced > 0) changes the
// rendered shape, and only live deliveries carry labels, so those
// encode fresh and only the dense form is cached.
func (e ChangeEvent) MarshalJSON() ([]byte, error) {
	cacheable := e.enc != nil && e.Coalesced == 0
	if cacheable {
		if b := e.enc.JSON(); b != nil {
			return b, nil
		}
	}
	b, ok := appendChangeEventJSON(make([]byte, 0, 192), e)
	if !ok {
		var err error
		b, err = json.Marshal(changeEventJSON(e))
		if err != nil {
			return nil, err
		}
	}
	if cacheable {
		e.enc.StoreJSON(b)
	}
	return b, nil
}

// appendChangeEventJSON renders e in encoding/json's exact output
// format. ok is false when some value needs a rendering this fast path
// does not implement (escaped strings, non-finite floats) and the
// caller must fall back to the stdlib.
func appendChangeEventJSON(dst []byte, e ChangeEvent) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"op":`...)
	if dst, ok = coord.AppendJSONString(dst, e.Op); !ok {
		return nil, false
	}
	if e.Entry != nil {
		dst = append(dst, `,"entry":`...)
		if dst, ok = appendChangeEntryJSON(dst, e.Entry); !ok {
			return nil, false
		}
	}
	if e.ID != "" {
		dst = append(dst, `,"id":`...)
		if dst, ok = coord.AppendJSONString(dst, e.ID); !ok {
			return nil, false
		}
	}
	if len(e.IDs) > 0 {
		dst = append(dst, `,"ids":[`...)
		for i, id := range e.IDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = coord.AppendJSONString(dst, id); !ok {
				return nil, false
			}
		}
		dst = append(dst, ']')
	}
	if e.PubNs != 0 {
		dst = append(dst, `,"pub_ns":`...)
		dst = strconv.AppendInt(dst, e.PubNs, 10)
	}
	if e.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, e.Epoch, 10)
	}
	if e.Coalesced != 0 {
		dst = append(dst, `,"coalesced":`...)
		dst = strconv.AppendUint(dst, e.Coalesced, 10)
	}
	return append(dst, '}'), true
}

// appendChangeEntryJSON renders one entry, matching the stdlib field
// order and omitempty choices of ChangeEntry.
func appendChangeEntryJSON(dst []byte, e *ChangeEntry) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"id":`...)
	if dst, ok = coord.AppendJSONString(dst, e.ID); !ok {
		return nil, false
	}
	dst = append(dst, `,"coord":`...)
	if dst, ok = e.Coord.AppendJSON(dst); !ok {
		return nil, false
	}
	if e.Error != 0 {
		dst = append(dst, `,"error":`...)
		if dst, ok = coord.AppendJSONFloat(dst, e.Error); !ok {
			return nil, false
		}
	}
	dst = append(dst, `,"updated_at_unix_nano":`...)
	dst = strconv.AppendInt(dst, e.UpdatedAtUnixNano, 10)
	if e.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, e.Seq, 10)
	}
	return append(dst, '}'), true
}
