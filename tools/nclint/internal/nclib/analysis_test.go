package nclib

import (
	"go/token"
	"go/types"
	"testing"
)

// TestDiagnosticString pins the finding format nclint prints, which
// editors and CI logs parse as file:line:col.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Position: token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "hotpath",
		Message:  "hot path F reaches allocation: make",
	}
	if got, want := d.String(), "x.go:3:7: hotpath: hot path F reaches allocation: make"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

type sitesFact struct{ Sites []string }

func (*sitesFact) AFact() {}

// TestFactsAreCopied: an imported fact is the importer's own copy, so
// no pass can alias, or mutate, a fact another pass exported; and one
// analyzer never sees another's facts.
func TestFactsAreCopied(t *testing.T) {
	facts, fn := factStore{}, types.NewFunc(token.NoPos, nil, "F", nil)
	hot := &Pass{Analyzer: &Analyzer{Name: "hotpath"}, facts: facts}
	exported := &sitesFact{Sites: []string{"a"}}
	hot.ExportObjectFact(fn, exported)
	exported.Sites[0] = "changed after export"
	for range 2 {
		var got sitesFact
		if !hot.ImportObjectFact(fn, &got) || len(got.Sites) != 1 || got.Sites[0] != "a" {
			t.Fatalf("imported %+v, want the fact as exported", got)
		}
		got.Sites[0] = "changed by the importer"
	}
	lock := &Pass{Analyzer: &Analyzer{Name: "lockdiscipline"}, facts: facts}
	if lock.ImportObjectFact(fn, new(sitesFact)) {
		t.Fatal("one analyzer imported another's fact")
	}
}
