package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-only", "fig999"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	if err := run([]string{"-out", "/no/such/dir/results.txt", "-only", "fig2"}); err == nil {
		t.Fatal("unwritable output accepted")
	}
}

func TestRunListsUnknownIDsSorted(t *testing.T) {
	const want = "unknown experiment ids: [w x y z] (use -list)"
	// A four-key map often walks in sorted order by chance, so one run
	// proves little; the listing is checked a hundred times.
	for range 100 {
		err := run([]string{"-only", "w,x,y,z"})
		if err == nil || err.Error() != want {
			t.Fatalf("run -only w,x,y,z: got %v, want %q", err, want)
		}
	}
}

func TestRunSubsetToFile(t *testing.T) {
	// fig2 is the cheapest experiment; quick scale keeps this test
	// meaningful but fast.
	out := filepath.Join(t.TempDir(), "results.txt")
	if err := run([]string{"-only", "fig2", "-out", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read results: %v", err)
	}
	text := string(data)
	if !strings.Contains(text, "Figure 2") {
		t.Fatalf("results missing Figure 2 section:\n%s", text)
	}
	if !strings.Contains(text, "fraction >= 1s") {
		t.Fatal("results missing calibration line")
	}
}
