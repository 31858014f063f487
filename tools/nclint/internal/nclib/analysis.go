// Package nclib is a self-contained, stdlib-only reimplementation of
// the golang.org/x/tools/go/analysis surface that nclint's analyzers
// program against. The build environment vendors nothing, so instead
// of depending on x/tools this package provides the same three
// capabilities from the standard library alone:
//
//   - loading: packages are enumerated with `go list -export -json
//     -deps`, project packages are parsed and type-checked from
//     source, and dependencies are imported through the compiler's
//     export data out of the build cache (offline, no GOPROXY);
//   - passes and facts: each analyzer runs once per package in
//     dependency order and may attach serializable facts to objects,
//     visible to later passes — the same bottom-up flow x/tools facts
//     have, which is what lets hotpath summaries and lock annotations
//     propagate across package boundaries;
//   - driving: one whole-program driver (RunAnalyzers), shared by the
//     nclint command over `./...` patterns and by the
//     analysistest-style fixture harness (nclibtest) with `// want`
//     expectations.
//
// Suppression is centralized here: a finding is silenced by an
// `//nc:allow(analyzer) reason` comment on its line or the line above,
// and a reason is mandatory — an allow without one is itself a
// finding, so the tree can never accumulate unexplained mutings.
package nclib

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer describes one nclint check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //nc:allow(<name>) suppressions. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description printed by -help.
	Doc string
	// Run performs the per-package analysis.
	Run func(*Pass) error
	// Finalize, if set, runs once after every package's Run completed,
	// with the whole program in view — for checks that are inherently
	// global, like metric-name uniqueness across the build.
	Finalize func(prog *Program, report func(Diagnostic))
}

// A Fact is a serializable value attached to an object by one pass
// and imported by later passes of the same analyzer. The AFact marker
// mirrors x/tools; facts must be gob-encodable.
type Fact interface{ AFact() }

// A Diagnostic is one finding, positioned in the file set of the run.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	prog   *Program
	report func(Diagnostic)
	facts  factStore
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsProject reports whether pkg is part of the code under analysis
// (the module, or any non-stdlib package in fixture mode) as opposed
// to the standard library. A nil pkg is the universe scope — builtins
// — and is never project code.
func (p *Pass) IsProject(pkg *types.Package) bool {
	return pkg != nil && p.prog.IsProject(pkg.Path())
}

// Allowed reports whether a finding of this analyzer at pos carries an
// //nc:allow suppression. Use it to keep suppressed sites out of
// exported facts, so a suppressed allocation site never enters a
// summary; plain diagnostics are filtered by the driver and do not
// need it.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.prog.allowed(p.Analyzer.Name, p.Fset.Position(pos))
}

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		panic(fmt.Sprintf("nclib: encoding %T fact: %v", fact, err))
	}
	p.facts[p.factKey(obj)] = buf.Bytes()
}

// ImportObjectFact copies the fact of this analyzer attached to obj
// into *fact, reporting whether one exists. obj may belong to any
// package analyzed earlier in dependency order (or this one).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	b, ok := p.facts[p.factKey(obj)]
	if !ok {
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(fact); err != nil {
		panic(fmt.Sprintf("nclib: decoding %T fact: %v", fact, err))
	}
	return true
}

// factKey names this analyzer's fact about obj. Load imports every
// project package by identity, so an object is the same value in every
// pass of a run; an instantiated generic function or method is keyed
// by its origin.
func (p *Pass) factKey(obj types.Object) factKey {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	return factKey{p.Analyzer.Name, obj}
}

type factKey struct {
	analyzer string
	obj      types.Object
}

// factStore holds gob-encoded facts. Facts are round-tripped through
// gob, so an importing pass gets its own copy and can never alias, or
// mutate, a fact another pass exported.
type factStore map[factKey][]byte

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	slices.SortFunc(ds, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Position.Filename, b.Position.Filename),
			cmp.Compare(a.Position.Line, b.Position.Line),
			cmp.Compare(a.Position.Column, b.Position.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
		)
	})
}
