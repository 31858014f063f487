package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"netcoord/internal/wire"
)

// Snapshot file layout (other formats are refused at the magic check):
//
//	8 bytes  magic "NCSNAP\x04\x00"
//	body:    uint64 generation | uint64 capture sequence |
//	         uint64 fencing epoch | uint64 tombstone floor |
//	         uint64 tombstone count | uint64 entry count |
//	         tombstones (uvarint seq | uvarint id length | id bytes) |
//	         entries, one wire upsert frame each (the frame's seq is the
//	         entry's own; epoch and publish stamp are zero)
//	4 bytes  IEEE CRC of the body
//
// A snapshot becomes visible only through an atomic rename of a fully
// written, fsynced temp file, so a crash during compaction leaves the
// previous snapshot untouched. The trailing checksum guards against
// the remaining failure mode — silent media corruption — in which case
// recovery falls back to the next older generation still on disk.
//
// The capture sequence is read before the state is captured, so the
// entries are a superset of the state at that sequence and replaying
// records with Seq > capture sequence over them converges exactly
// (records are per-id last-write-wins). It seeds the change stream on
// recovery and is the resume point a replica bootstrapping from this
// snapshot hands to the stream.
//
// The tombstone section persists removal knowledge: the floor is the
// sequence at or below which removals are unknown, and each tombstone
// is one removed (or evicted) id with the sequence that removed it.
// Recovering them is what lets a restarted — or newly promoted — leader
// keep serving /snapshot?since= delta re-bootstraps instead of forcing
// every replica through a full transfer.
var snapMagic = [8]byte{'N', 'C', 'S', 'N', 'A', 'P', formatVersion, 0}

// snapHeaderSize is the fixed body header: generation, capture
// sequence, epoch, tombstone floor, tombstone count, entry count.
const snapHeaderSize = 48

// snapPath names the snapshot file for a generation.
func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.ncs", gen))
}

// snapEncoder streams snapshot body bytes to a buffered writer while
// folding them into a running CRC, so a multi-million-entry snapshot
// is never materialized in memory — RSS during compaction stays flat
// at the buffer size instead of scaling with the registry.
type snapEncoder struct {
	w   *bufio.Writer
	crc uint32
}

// body writes b as body bytes: checksummed and streamed. Write errors
// are sticky inside bufio.Writer and surfaced by the final Flush, so
// the encoder never has to check them per call.
func (e *snapEncoder) body(b []byte) {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, b)
	_, _ = e.w.Write(b)
}

// writeSnapshot durably writes a state capture as the snapshot for gen.
func writeSnapshot(dir string, gen uint64, cap Capture, nosync bool) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	enc := &snapEncoder{w: bufio.NewWriterSize(tmp, 1<<16)}
	_, _ = enc.w.Write(snapMagic[:])
	var hdr [snapHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], gen)
	binary.LittleEndian.PutUint64(hdr[8:], cap.Seq)
	binary.LittleEndian.PutUint64(hdr[16:], cap.Epoch)
	binary.LittleEndian.PutUint64(hdr[24:], cap.TombstoneFloor)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(cap.Tombstones)))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(cap.Entries)))
	enc.body(hdr[:])
	scratch := make([]byte, 0, 256)
	for _, t := range cap.Tombstones {
		if err := wire.ValidateID(t.ID); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("persist: tombstone %q: %w", t.ID, err)
		}
		scratch = binary.AppendUvarint(scratch[:0], t.Seq)
		scratch = binary.AppendUvarint(scratch, uint64(len(t.ID)))
		scratch = append(scratch, t.ID...)
		enc.body(scratch)
	}
	for i := range cap.Entries {
		scratch, err = wire.AppendEntryFrame(scratch[:0], &cap.Entries[i])
		if err != nil {
			_ = tmp.Close()
			return fmt.Errorf("persist: snapshot entry %q: %w", cap.Entries[i].ID, err)
		}
		enc.body(scratch)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], enc.crc)
	_, _ = enc.w.Write(trailer[:])
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

// snapContents is one decoded snapshot body.
type snapContents struct {
	entries   []Entry
	seq       uint64
	epoch     uint64
	tombFloor uint64
	tombs     []Tombstone
}

// loadSnapshot reads and verifies the snapshot for gen. Its entries
// come back strictly ascending by id. A file this code wrote already is
// (its entries were a Registry.Snapshot), which is checked during the
// decode and not assumed; one that is not gets a stable sort keeping
// the last entry of each id, what a map load in file order would leave.
func loadSnapshot(dir string, gen uint64) (snapContents, error) {
	data, err := os.ReadFile(snapPath(dir, gen))
	if err != nil {
		return snapContents{}, fmt.Errorf("persist: read snapshot: %w", err)
	}
	if len(data) >= len(snapMagic) {
		if err := checkMagic(filepath.Base(snapPath(dir, gen)), data[:8], snapMagic, 6); err != nil {
			return snapContents{}, err
		}
	}
	if len(data) < len(snapMagic)+snapHeaderSize+4 {
		return snapContents{}, fmt.Errorf("persist: snapshot gen %d: truncated", gen)
	}
	body := data[8 : len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return snapContents{}, fmt.Errorf("persist: snapshot gen %d: checksum mismatch", gen)
	}
	if g := binary.LittleEndian.Uint64(body); g != gen {
		return snapContents{}, fmt.Errorf("persist: snapshot gen %d: header says %d", gen, g)
	}
	sc := snapContents{
		seq:       binary.LittleEndian.Uint64(body[8:]),
		epoch:     binary.LittleEndian.Uint64(body[16:]),
		tombFloor: binary.LittleEndian.Uint64(body[24:]),
	}
	tombCount := binary.LittleEndian.Uint64(body[32:])
	count := binary.LittleEndian.Uint64(body[40:])
	src := body[snapHeaderSize:]
	// A CRC is a checksum, not authentication: the counts must still be
	// treated as untrusted. Every tombstone occupies at least 3 bytes
	// and every entry at least minEntrySize, so counts the body cannot
	// hold are corruption — reject them (recovery falls back a
	// generation) instead of letting them size an allocation.
	const minTombSize = 3   // 1 seq + 1 id frame + 1 id byte
	const minEntrySize = 33 // 6 frame header + 2 id + 9 empty coord + 16 error/time
	if tombCount > uint64(len(src))/minTombSize {
		return snapContents{}, fmt.Errorf("persist: snapshot gen %d: tombstone count %d impossible for %d body bytes", gen, tombCount, len(src))
	}
	sc.tombs = make([]Tombstone, 0, tombCount)
	for i := uint64(0); i < tombCount; i++ {
		seq, used := binary.Uvarint(src)
		if used <= 0 {
			return snapContents{}, fmt.Errorf("persist: snapshot gen %d tombstone %d: bad sequence", gen, i)
		}
		id, rest, err := decodeID(src[used:])
		if err != nil {
			return snapContents{}, fmt.Errorf("persist: snapshot gen %d tombstone %d: %w", gen, i, err)
		}
		sc.tombs = append(sc.tombs, Tombstone{Seq: seq, ID: id})
		src = rest
	}
	if count > uint64(len(src))/minEntrySize {
		return snapContents{}, fmt.Errorf("persist: snapshot gen %d: count %d impossible for %d body bytes", gen, count, len(src))
	}
	sc.entries = make([]Entry, 0, count)
	ascending := true
	var fr wire.Frame
	for i := uint64(0); i < count; i++ {
		n, err := wire.DecodeFrameInto(&fr, src)
		if err == nil && fr.Op != wire.OpUpsert {
			err = fmt.Errorf("op %d, want upsert", fr.Op)
		}
		if err != nil {
			return snapContents{}, fmt.Errorf("persist: snapshot gen %d entry %d: %w", gen, i, err)
		}
		if i > 0 && fr.ID <= sc.entries[i-1].ID {
			ascending = false
		}
		sc.entries = append(sc.entries, fr.Entry())
		src = src[n:]
	}
	if len(src) != 0 {
		return snapContents{}, fmt.Errorf("persist: snapshot gen %d: %d trailing bytes", gen, len(src))
	}
	if !ascending {
		// Reversed first, so the stable sort puts each id's last entry
		// at the head of its run, which is the one CompactFunc keeps.
		slices.Reverse(sc.entries)
		slices.SortStableFunc(sc.entries, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
		sc.entries = slices.CompactFunc(sc.entries, func(a, b Entry) bool { return a.ID == b.ID })
	}
	return sc, nil
}

// decodeID reads one uvarint-framed tombstone id from src.
func decodeID(src []byte) (string, []byte, error) {
	n, used := binary.Uvarint(src)
	if used <= 0 || n == 0 || n > wire.MaxIDLen {
		return "", nil, fmt.Errorf("persist: bad id frame")
	}
	src = src[used:]
	if uint64(len(src)) < n {
		return "", nil, fmt.Errorf("persist: truncated id")
	}
	return string(src[:n]), src[n:], nil
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
