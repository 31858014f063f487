package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"netcoord/internal/golden"
)

// TestRunGolden runs the example end to end and holds everything it
// prints to testdata/run.golden, byte for byte: the run is seeded and
// opens no socket, so any difference is a change in the library
// underneath. Regenerate with `go test ./examples/placement -update` and
// review the diff.
func TestRunGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.Check(t, filepath.Join("testdata", "run.golden"), out.Bytes())
}
