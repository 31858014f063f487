package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"netcoord/internal/wire"
)

// ErrCorruptRecord marks a WAL record whose frame is fully present but
// whose bytes fail verification (checksum mismatch or undecodable
// payload) — media damage inside the durable prefix, as opposed to the
// torn tail a crash leaves. Recovery stops replay at the damaged
// record, quarantines the generation file, and reports the error
// through RecoveryStats; match with errors.Is.
var ErrCorruptRecord = errors.New("persist: corrupt wal record")

// ErrFormat marks a data file written in another on-disk format than
// this build reads. There is no upgrade reader: Open refuses the
// directory, and the operator re-bootstraps it from a peer.
var ErrFormat = errors.New("persist: unsupported on-disk format")

// formatVersion is the on-disk format of both file kinds. Format 4: a
// WAL record's payload and a snapshot's entries are internal/wire
// frames.
const formatVersion = 4

// WAL file layout (other formats are refused at the magic check):
//
//	8 bytes  magic "NCWAL\x04\x00\x00"
//	8 bytes  generation (little endian)
//	records: uint32 payload length | uint32 IEEE CRC of payload | payload
//
// A payload is exactly one wire frame, which carries the mutation's
// change-stream sequence, fencing epoch and publish stamp.
//
// The frame makes every record self-verifying, and replay distinguishes
// two failure shapes. A *torn* tail — not enough bytes left for the
// frame header or the declared payload, or an implausible length that
// makes further framing unparseable — is the signature of a crash
// mid-append: replay ends cleanly at the last complete record and the
// tail is discarded. A *corrupt* record — a complete frame whose
// checksum or payload decode fails — means bytes inside the durable
// prefix rotted (bit flip, bad sector): replay still stops there, but
// the damage is surfaced as ErrCorruptRecord so recovery can quarantine
// the file instead of silently treating media damage as a crash
// artifact.
const (
	walHeaderSize   = 16
	frameHeaderSize = 8
)

var walMagic = [8]byte{'N', 'C', 'W', 'A', 'L', formatVersion, 0, 0}

// checkMagic verifies a data file's leading magic, whose format byte
// sits at index verAt. A file of the right kind in another format is
// ErrFormat, naming both versions; anything else is not a file of this
// store at all.
func checkMagic(name string, got []byte, want [8]byte, verAt int) error {
	switch {
	case bytes.Equal(got, want[:]):
		return nil
	case bytes.Equal(got[:verAt], want[:verAt]):
		return fmt.Errorf("%w: %s is format %d, this build reads format %d; re-bootstrap the directory from a peer", ErrFormat, name, got[verAt], want[verAt])
	}
	return fmt.Errorf("persist: %s: bad magic", name)
}

// walPath names the WAL file for a generation.
func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.ncl", gen))
}

// createWAL creates (truncating) a new WAL file for gen and writes its
// header. The header is flushed immediately so a generation file is
// never ambiguous on disk.
func createWAL(dir string, gen uint64) (*os.File, error) {
	f, err := os.OpenFile(walPath(dir, gen), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: create wal: %w", err)
	}
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, gen)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: write wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: sync wal header: %w", err)
	}
	// The dirent must be journaled too: without a directory sync a
	// power loss can drop the whole generation file, losing every
	// record fsynced into it — far more than the flush window the
	// durability contract allows.
	if err := syncDir(dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// appendFrame frames payload onto dst: length, checksum, payload.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// walReplay is the result of scanning one WAL file.
type walReplay struct {
	// records is how many complete records were applied.
	records int
	// validSize is the byte offset just past the last complete record;
	// opening this file for append must truncate to it first.
	validSize int64
	// tornBytes is how many trailing bytes were discarded.
	tornBytes int64
	// corrupt reports that the scan ended on a complete-but-damaged
	// frame (checksum or decode failure) rather than a torn tail;
	// corruptErr wraps ErrCorruptRecord with the position.
	corrupt    bool
	corruptErr error
}

// replayWAL scans the WAL at path, invoking apply for every complete
// record in order. A malformed tail ends the scan cleanly (recorded in
// the result); a malformed header is a hard error, because it means the
// file is not a WAL of this store at all.
func replayWAL(path string, wantGen uint64, apply func(wire.Event)) (walReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return walReplay{}, fmt.Errorf("persist: read wal: %w", err)
	}
	if len(data) < walHeaderSize {
		// A crash can beat even the header write; the file carries no
		// records, so recovery rewrites it from scratch.
		return walReplay{validSize: 0, tornBytes: int64(len(data))}, nil
	}
	if err := checkMagic(filepath.Base(path), data[:8], walMagic, 5); err != nil {
		return walReplay{}, err
	}
	if gen := binary.LittleEndian.Uint64(data[8:16]); gen != wantGen {
		return walReplay{}, fmt.Errorf("persist: %s: header generation %d, want %d", filepath.Base(path), gen, wantGen)
	}
	rep := walReplay{validSize: walHeaderSize}
	off := int64(walHeaderSize)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < frameHeaderSize {
			break // torn frame header
		}
		plen := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if plen == 0 || plen > maxRecordSize {
			// An implausible length makes further framing unparseable;
			// indistinguishable from append garbage, so treat as torn.
			break
		}
		if len(rest) < frameHeaderSize+int(plen) {
			break // torn payload
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(plen)]
		if crc32.ChecksumIEEE(payload) != sum {
			// The full frame is on disk but its bytes rotted: this is
			// media damage inside the durable prefix, not a crash tail.
			rep.corrupt = true
			rep.corruptErr = fmt.Errorf("%w: %s: record %d at offset %d: checksum mismatch", ErrCorruptRecord, filepath.Base(path), rep.records, off)
			break
		}
		ev, n, err := wire.DecodeEvent(payload)
		if err == nil && n != len(payload) {
			err = fmt.Errorf("%d trailing bytes after the frame", len(payload)-n)
		}
		if err != nil {
			rep.corrupt = true
			rep.corruptErr = fmt.Errorf("%w: %s: record %d at offset %d: %v", ErrCorruptRecord, filepath.Base(path), rep.records, off, err)
			break
		}
		apply(ev)
		rep.records++
		off += frameHeaderSize + int64(plen)
		rep.validSize = off
	}
	rep.tornBytes = int64(len(data)) - rep.validSize
	return rep, nil
}

// openWALForAppend opens an existing WAL whose valid prefix is
// validSize bytes, truncating any torn tail so new records extend the
// last complete one.
func openWALForAppend(path string, validSize int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	if err := f.Truncate(validSize); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: truncate wal tail: %w", err)
	}
	if _, err := f.Seek(validSize, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: seek wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: sync truncated wal: %w", err)
	}
	return f, nil
}
