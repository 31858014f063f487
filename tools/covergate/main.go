// Command covergate fails when a library function never runs under the
// test suite. It reads `go tool cover -func` output on stdin:
//
//	go test -coverpkg=./... -coverprofile=cover.out ./...
//	go tool cover -func=cover.out | go run ./tools/covergate
//
// and exits non-zero if any library function reports 0.0% and is not
// in allowlist.txt, or if an allowlisted function no longer reports
// 0.0% (it runs now, or is gone), so the list cannot go stale. Library
// code is everything outside cmd/, examples/ and tools/, plus nclint's
// analyzers and their driver library under tools/nclint/analyzers/ and
// tools/nclint/internal/, whose verdicts CI trusts. It must run from
// the module root: a function is named package.Receiver.Method (or
// package.Func), and the receiver is read from the source file the
// report points at.
package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// allowlist is the committed list of functions allowed to stay at 0 %:
// one per line, the qualified name and then the reason; # starts a
// comment.
//
//go:embed allowlist.txt
var allowlist string

// exempt are the module's top-level directories that hold programs
// rather than library code; gated are the library directories inside
// them.
var (
	exempt = []string{"cmd", "examples", "tools"}
	gated  = []string{"tools/nclint/analyzers/", "tools/nclint/internal/"}
)

func main() {
	allowed, err := parseAllowlist(allowlist)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covergate: allowlist.txt: %v\n", err)
		os.Exit(1)
	}
	rep, err := gate(os.DirFS("."), os.Stdin, allowed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covergate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("covergate: total %s, %d library functions, %d allowlisted at 0.0%%\n", rep.Total, rep.Functions, len(allowed))
	for _, name := range rep.Unrun {
		fmt.Fprintf(os.Stderr, "covergate: %s never runs under go test ./...: test it, delete it, or allowlist it with a reason\n", name)
	}
	for _, name := range rep.Stale {
		fmt.Fprintf(os.Stderr, "covergate: %s is allowlisted but no longer at 0.0%%: remove it from allowlist.txt\n", name)
	}
	if len(rep.Unrun) > 0 || len(rep.Stale) > 0 {
		os.Exit(1)
	}
}

// Report is the outcome of one gate run.
type Report struct {
	// Total is the report's total statement coverage, as printed.
	Total string
	// Functions counts the library functions the report lists.
	Functions int
	// Unrun are library functions at 0.0% that the allowlist lacks;
	// Stale are allowlisted functions not at 0.0%. Both sorted.
	Unrun, Stale []string
}

// parseAllowlist reads "name reason..." lines, skipping blanks and
// # comments. Every entry must give a reason.
func parseAllowlist(text string) (map[string]string, error) {
	allowed := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("line %d: %s has no reason", i+1, name)
		}
		if _, dup := allowed[name]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", i+1, name)
		}
		allowed[name] = reason
	}
	return allowed, nil
}

// gate checks a `go tool cover -func` report against the allowlist.
// src is the module root: its go.mod names the module, and the source
// files the report points at resolve each function's receiver.
func gate(src fs.FS, report io.Reader, allowed map[string]string) (Report, error) {
	var rep Report
	mod, err := modulePath(src)
	if err != nil {
		return rep, err
	}
	files := map[string]map[int]string{} // file -> line -> qualified name
	unrun := map[string]bool{}
	sc := bufio.NewScanner(report)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "total:" {
			rep.Total = fields[len(fields)-1]
			continue
		}
		if len(fields) != 3 {
			return rep, fmt.Errorf("unexpected report line %q", sc.Text())
		}
		file, line, err := splitPos(fields[0])
		if err != nil {
			return rep, err
		}
		rel, ok := strings.CutPrefix(file, mod+"/")
		if !ok {
			return rep, fmt.Errorf("%s is outside module %s", file, mod)
		}
		if isExempt(rel) {
			continue
		}
		rep.Functions++
		if fields[2] != "0.0%" {
			continue
		}
		if files[rel] == nil {
			if files[rel], err = funcNames(src, rel); err != nil {
				return rep, err
			}
		}
		name, ok := files[rel][line]
		if !ok {
			return rep, fmt.Errorf("%s:%d: no function %s declared there", rel, line, fields[1])
		}
		unrun[name] = true
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if rep.Total == "" {
		return rep, fmt.Errorf("no total line: is stdin `go tool cover -func` output?")
	}
	for name := range unrun {
		if _, ok := allowed[name]; !ok {
			rep.Unrun = append(rep.Unrun, name)
		}
	}
	for name := range allowed {
		if !unrun[name] {
			rep.Stale = append(rep.Stale, name)
		}
	}
	sort.Strings(rep.Unrun)
	sort.Strings(rep.Stale)
	return rep, nil
}

// modulePath reads the module line of go.mod.
func modulePath(src fs.FS) (string, error) {
	data, err := fs.ReadFile(src, "go.mod")
	if err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fmt.Errorf("go.mod has no module line")
}

// splitPos splits a report position "path/file.go:LINE:".
func splitPos(pos string) (string, int, error) {
	parts := strings.Split(strings.TrimSuffix(pos, ":"), ":")
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("bad position %q", pos)
	}
	line, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, fmt.Errorf("bad position %q", pos)
	}
	return parts[0], line, nil
}

// isExempt reports whether a module-relative file lives under a
// program directory and outside its gated library directories.
func isExempt(rel string) bool {
	for _, dir := range gated {
		if strings.HasPrefix(rel, dir) {
			return false
		}
	}
	top, _, _ := strings.Cut(rel, "/")
	for _, dir := range exempt {
		if top == dir {
			return true
		}
	}
	return false
}

// funcNames maps each function declaration's line in one source file
// to its qualified name: package.Func or package.Receiver.Method.
func funcNames(src fs.FS, rel string) (map[int]string, error) {
	data, err := fs.ReadFile(src, rel)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path.Base(rel), data, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[int]string{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := f.Name.Name + "."
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			name += recvName(fn.Recv.List[0].Type) + "."
		}
		names[fset.Position(fn.Pos()).Line] = name + fn.Name.Name
	}
	return names, nil
}

// recvName is a receiver's type name without pointer or type
// parameters.
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
