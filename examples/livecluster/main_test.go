package main

import (
	"io"
	"testing"
)

// TestRunSmoke runs the example end to end over loopback UDP. Its
// numbers depend on the host's timing, so only the outcome is checked.
func TestRunSmoke(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}
