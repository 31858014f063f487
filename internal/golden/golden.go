// Package golden holds test output to committed files byte for byte.
// A test that imports it takes an -update flag: with it, Check rewrites
// each file from what the test produces now, for review as a diff.
package golden

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from what the tests produce now")

// Check compares got with the golden file, or rewrites the file under
// -update, and names the first line that drifted.
func Check(t testing.TB, file string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("%s drifted at line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("%s drifted: %d lines, want %d", file, len(gl), len(wl))
}
