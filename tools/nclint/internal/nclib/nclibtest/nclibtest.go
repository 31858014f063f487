// Package nclibtest is nclib's analysistest: it loads fixture
// packages from a testdata directory laid out GOPATH-style
// (testdata/src/<pkg>/*.go), runs one analyzer over them, and checks
// the findings against `// want "regexp"` comments in the fixtures.
//
// Fixtures are compiled real code — they are type-checked with full
// standard-library imports — so every analyzer test exercises exactly
// the code path the production run does, including cross-package fact
// propagation (a fixture package importing another fixture package).
package nclibtest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netcoord/tools/nclint/internal/nclib"
)

// Run loads the named fixture packages (and their deps) from the
// test's testdata directory and reports any mismatch between the
// analyzer's findings and the fixtures' // want expectations.
func Run(t *testing.T, a *nclib.Analyzer, pkgs ...string) {
	t.Helper()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatalf("resolving testdata: %v", err)
	}
	prog, err := nclib.Load(nclib.LoadConfig{
		Dir: testdata,
		Env: []string{
			"GO111MODULE=off",
			"GOPATH=" + testdata,
			"GOFLAGS=",
		},
		Patterns: pkgs,
	})
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := nclib.RunAnalyzers(prog, []*nclib.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*want)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := prog.Fset.Position(c.Pos())
					for _, w := range parseWants(t, pos.Filename, pos.Line, c.Text) {
						wants[key{pos.Filename, pos.Line}] = append(wants[key{pos.Filename, pos.Line}], w)
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Position.Filename, d.Position.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s: %s", d.Position, d.Analyzer, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no finding matched want %q", k.file, k.line, w.re)
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the expectations from one comment. The grammar
// is analysistest's: `// want "re" "re2" ...`, with each pattern a Go
// string literal (interpreted or raw).
func parseWants(t *testing.T, file string, line int, text string) []*want {
	t.Helper()
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !ok {
		return nil
	}
	var out []*want
	rest = strings.TrimSpace(rest)
	for rest != "" {
		lit, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s:%d: malformed want: pattern must be a string literal: %q", file, line, rest)
		}
		pattern, _ := strconv.Unquote(lit) // lit is a valid literal
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%s:%d: want pattern: %v", file, line, err)
		}
		out = append(out, &want{re: re})
		rest = strings.TrimSpace(rest[len(lit):])
	}
	return out
}
