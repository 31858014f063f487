package persist

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netcoord/internal/coord"
	"netcoord/internal/golden"
)

// TestSnapshotFileLayoutGolden holds the bytes of one small snapshot
// file — two tombstones, two entries — to a hex dump written by the
// format-4 writer before the snapshot body moved into internal/wire.
// Directories already on disk open only while the layout stays put, so
// this file must never be regenerated to make a change pass.
func TestSnapshotFileLayoutGolden(t *testing.T) {
	dir := t.TempDir()
	c := Capture{
		Seq: 41, Epoch: 3, TombstoneFloor: 7,
		Tombstones: []Tombstone{{Seq: 9, ID: "gone"}, {Seq: 12, ID: "evicted"}},
		Entries: []Entry{
			{ID: "a", Coord: coord.Coordinate{Vec: []float64{1.5, -2, 0.25}, Height: 0.5}, Error: 0.125, UpdatedAt: time.Unix(1_700_000_000, 7), Seq: 40},
			{ID: "b", Coord: coord.New(3, 4, 5), Error: 1, UpdatedAt: time.Unix(1_700_000_001, 0), Seq: 41},
		},
	}
	if err := writeSnapshot(dir, 5, c, true); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	data, err := os.ReadFile(snapPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "snapshot_file.golden"), []byte(hex.Dump(data)))
}
