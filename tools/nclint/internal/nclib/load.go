package nclib

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded package. Project packages carry syntax and
// full type information; standard-library dependencies carry only the
// path to their export data.
type Package struct {
	PkgPath string
	Dir     string
	GoFiles []string
	Project bool
	export  string

	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Program is one loaded build: every package named by the load
// patterns plus their dependencies, with project packages
// type-checked from source in dependency order.
type Program struct {
	Fset *token.FileSet
	// Pkgs holds the project packages in dependency order (imports
	// before importers) — the order analyzers run in.
	Pkgs   []*Package
	ByPath map[string]*Package
	// ModulePath and ModuleDir identify the main module ("" outside
	// module mode, e.g. the GOPATH-style fixture harness).
	ModulePath string
	ModuleDir  string

	allows map[string][]allowComment // filename -> parsed //nc:allow comments
}

// IsProject reports whether the package at path is code under
// analysis rather than standard library.
func (prog *Program) IsProject(path string) bool {
	p, ok := prog.ByPath[path]
	return ok && p.Project
}

// LoadConfig configures Load.
type LoadConfig struct {
	// Dir is the working directory for go list (the module root, or a
	// fixture's GOPATH in tests). Empty means the process cwd.
	Dir string
	// Env entries are appended to the environment for go list and
	// type-checking subprocesses (e.g. GO111MODULE=off, GOPATH=...).
	Env []string
	// Patterns are the go list package patterns ("./...", "a", ...).
	Patterns []string
}

// listPackage mirrors the go list -json fields Load consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct {
		Path string
		Dir  string
		Main bool
	}
	Error *struct{ Err string }
}

// Load enumerates patterns with `go list -export -json -deps`, parses
// every project package from source, and type-checks them in
// dependency order, importing standard-library dependencies through
// their export data in the build cache. It is fully offline: nothing
// is fetched, nothing outside the build cache is written.
func Load(cfg LoadConfig) (*Program, error) {
	args := []string{
		"list", "-export",
		"-json=Dir,ImportPath,Export,Standard,GoFiles,Module,Error",
		"-deps", "--",
	}
	args = append(args, cfg.Patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Env = append(os.Environ(), cfg.Env...)
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("nclib: go list %s: %s", strings.Join(cfg.Patterns, " "), msg)
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		ByPath: make(map[string]*Package),
		allows: make(map[string][]allowComment),
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	var order []*Package
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("nclib: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("nclib: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		p := &Package{
			PkgPath: lp.ImportPath,
			Dir:     lp.Dir,
			GoFiles: lp.GoFiles,
			Project: !lp.Standard && lp.ImportPath != "unsafe",
			export:  lp.Export,
		}
		if lp.Module != nil && lp.Module.Main {
			prog.ModulePath = lp.Module.Path
			prog.ModuleDir = lp.Module.Dir
		}
		prog.ByPath[p.PkgPath] = p
		order = append(order, p)
	}

	imp := &progImporter{prog: prog}
	imp.gc = importer.ForCompiler(prog.Fset, "gc", imp.lookup)
	for _, p := range order {
		if !p.Project {
			continue
		}
		if err := typecheck(prog, p, imp); err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	return prog, nil
}

// typecheck parses and checks one project package from source.
func typecheck(prog *Program, p *Package, imp types.Importer) error {
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("nclib: parsing %s: %w", path, err)
		}
		p.Syntax = append(p.Syntax, f)
		prog.scanAllows(path, f)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.PkgPath, prog.Fset, p.Syntax, p.Info)
	if err != nil {
		return fmt.Errorf("nclib: type-checking %s: %w", p.PkgPath, err)
	}
	p.Types = tpkg
	return nil
}

// progImporter resolves imports during type-checking: project
// packages by identity (the source-checked *types.Package, so object
// identity and facts line up across packages), everything else
// through compiler export data.
type progImporter struct {
	prog *Program
	gc   types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := pi.prog.ByPath[path]; ok && p.Project {
		if p.Types == nil {
			return nil, fmt.Errorf("nclib: import cycle or out-of-order import of %q", path)
		}
		return p.Types, nil
	}
	return pi.gc.Import(path)
}

// lookup feeds the gc importer export data straight from the build
// cache paths go list reported.
func (pi *progImporter) lookup(path string) (io.ReadCloser, error) {
	p, ok := pi.prog.ByPath[path]
	if !ok || p.export == "" {
		return nil, fmt.Errorf("nclib: no export data for %q", path)
	}
	return os.Open(p.export)
}
