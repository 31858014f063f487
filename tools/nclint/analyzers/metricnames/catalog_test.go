package metricnames

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netcoord/tools/nclint/internal/nclib"
)

// TestReadmeCatalog drives finalize's README leg, which fixtures (no
// module, so no ModuleDir) never reach: a name is cataloged verbatim
// or under a netcoord_foo_* wildcard, and anything else is a finding.
func TestReadmeCatalog(t *testing.T) {
	dir := t.TempDir()
	readme := "| `netcoord_listed_total` | listed verbatim |\n| `netcoord_foo_*` | a family |\n"
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte(readme), 0o644); err != nil {
		t.Fatal(err)
	}
	decls = []decl{
		{Name: "netcoord_listed_total", Kind: "counter", Pos: token.Position{Filename: "m.go", Line: 1}},
		{Name: "netcoord_foo_bar_seconds", Kind: "histogram", Pos: token.Position{Filename: "m.go", Line: 2}},
		{Name: "netcoord_uncataloged_probe", Kind: "gauge", Pos: token.Position{Filename: "m.go", Line: 3}},
	}
	var got []nclib.Diagnostic
	finalize(&nclib.Program{ModuleDir: dir}, func(d nclib.Diagnostic) { got = append(got, d) })
	if len(got) != 1 || got[0].Position.Line != 3 ||
		!strings.Contains(got[0].Message, "netcoord_uncataloged_probe is not documented in README.md") {
		t.Fatalf("findings %v, want exactly the uncataloged gauge at m.go:3", got)
	}
	if decls != nil {
		t.Fatal("finalize left the registration sites for the next run")
	}
}

// TestReadmeCatalogMissing reports a module without a README instead of
// passing every name.
func TestReadmeCatalogMissing(t *testing.T) {
	decls = []decl{{Name: "netcoord_x_total", Kind: "counter"}}
	var got []nclib.Diagnostic
	finalize(&nclib.Program{ModuleDir: t.TempDir()}, func(d nclib.Diagnostic) { got = append(got, d) })
	if len(got) != 1 || !strings.Contains(got[0].Message, "cannot read README.md") {
		t.Fatalf("findings %v, want one unreadable-README finding", got)
	}
}
