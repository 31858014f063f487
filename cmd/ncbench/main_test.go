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
	// The headline table follows the renders and holds the rows of fig2
	// alone.
	_, table, ok := strings.Cut(text, "| id | name | paper | measured |\n")
	if !ok {
		t.Fatalf("results missing the headline table:\n%s", text)
	}
	if !strings.Contains(table, "| fig2 | %ge1s | ~0.4% | ") {
		t.Fatalf("headline table missing fig2's %%ge1s row:\n%s", table)
	}
	for _, line := range strings.Split(strings.TrimSuffix(table, "\n"), "\n")[1:] {
		if !strings.HasPrefix(line, "| fig2 | ") {
			t.Fatalf("headline table holds a row of an experiment that did not run: %q", line)
		}
	}
}
