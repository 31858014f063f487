package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"netcoord/internal/wire"
)

// Snapshot file layout (other formats are refused at the magic check):
//
//	8 bytes  magic "NCSNAP\x04\x00"
//	8 bytes  generation, little endian
//	body:    the snapshot body of internal/wire (wire.Snapshot): capture
//	         sequence, fencing epoch, tombstone floor and ring, entries
//	4 bytes  IEEE CRC of the generation and body
//
// A snapshot becomes visible only through an atomic rename of a fully
// written, fsynced temp file, so a crash during compaction leaves the
// previous snapshot untouched. The trailing checksum guards against
// the remaining failure mode — silent media corruption — in which case
// recovery falls back to the next older generation still on disk.
//
// The capture sequence is read with the state, so replaying records
// with Seq > capture sequence over the entries converges exactly
// (records are per-id last-write-wins). It seeds the change stream on
// recovery. The tombstone ring persists removal knowledge: recovering
// it is what lets a restarted — or newly promoted — leader keep serving
// /snapshot?since= delta re-bootstraps instead of forcing every replica
// through a full transfer.
var snapMagic = [8]byte{'N', 'C', 'S', 'N', 'A', 'P', formatVersion, 0}

// snapPath names the snapshot file for a generation.
func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.ncs", gen))
}

// crcWriter folds everything written through it into a running CRC on
// its way to a buffered file, so a multi-million-entry snapshot is
// never materialized in memory — RSS during compaction stays flat at
// the buffer size instead of scaling with the registry. Write errors
// are sticky inside bufio.Writer and surface at the final Flush.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (e *crcWriter) Write(b []byte) (int, error) {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, b)
	return e.w.Write(b)
}

// writeSnapshot durably writes a state capture as the snapshot for gen.
func writeSnapshot(dir string, gen uint64, cap Capture, nosync bool) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	enc := &crcWriter{w: bufio.NewWriterSize(tmp, 1<<16)}
	_, _ = enc.w.Write(snapMagic[:])
	_, _ = enc.Write(binary.LittleEndian.AppendUint64(nil, gen))
	if err := wire.WriteSnapshotBody(enc, &cap); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: snapshot gen %d: %w", gen, err)
	}
	_, _ = enc.w.Write(binary.LittleEndian.AppendUint32(nil, enc.crc))
	if err := enc.w.Flush(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if !nosync {
		if err := tmp.Sync(); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("persist: sync snapshot: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), snapPath(dir, gen)); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	if !nosync {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	return nil
}

// loadSnapshot reads and verifies the snapshot for gen. Its entries
// come back strictly ascending by id (wire.DecodeSnapshot normalises a
// file no compaction wrote).
func loadSnapshot(dir string, gen uint64) (Capture, error) {
	data, err := os.ReadFile(snapPath(dir, gen))
	if err != nil {
		return Capture{}, fmt.Errorf("persist: read snapshot: %w", err)
	}
	if len(data) >= len(snapMagic) {
		if err := checkMagic(filepath.Base(snapPath(dir, gen)), data[:8], snapMagic, 6); err != nil {
			return Capture{}, err
		}
	}
	if len(data) < len(snapMagic)+8+4 {
		return Capture{}, fmt.Errorf("persist: snapshot gen %d: truncated", gen)
	}
	body := data[8 : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return Capture{}, fmt.Errorf("persist: snapshot gen %d: checksum mismatch", gen)
	}
	if g := binary.LittleEndian.Uint64(body); g != gen {
		return Capture{}, fmt.Errorf("persist: snapshot gen %d: header says %d", gen, g)
	}
	// A CRC is a checksum, not authentication: the decoder still treats
	// every count as untrusted, and one the body cannot hold is
	// corruption (recovery falls back a generation).
	c, err := wire.DecodeSnapshot(body[8:])
	if err != nil {
		return Capture{}, fmt.Errorf("persist: snapshot gen %d: %w", gen, err)
	}
	return c, nil
}

// scanDir lists the snapshot and WAL generations present in dir, each
// sorted ascending.
func scanDir(dir string) (snaps, wals []uint64, err error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: scan dir: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".ncs"):
			if gen, ok := parseGen(name, "snap-", ".ncs"); ok {
				snaps = append(snaps, gen)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".ncl"):
			if gen, ok := parseGen(name, "wal-", ".ncl"); ok {
				wals = append(wals, gen)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// parseGen extracts the generation number from a data file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}
