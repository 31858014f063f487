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
