// Package hotpath statically enforces the repository's zero-alloc
// guarantees: a function annotated //nc:hotpath must not reach a known
// allocator — not directly, and not through any project-local callee,
// across package boundaries.
//
// The analyzer computes a bottom-up allocation summary for every
// function (which allocator sites it can reach through statically
// resolvable project calls) and exports the summaries as facts; since
// packages are analyzed in dependency order, an annotated function in
// a high-level package sees the summaries of everything below it. The
// CI benchmark gates (`benchjson -require-zero-alloc`) measure the
// same property dynamically on the steady-state path; this is their
// compile-time twin, and it also covers branches a benchmark never
// takes.
//
// Known allocators: fmt.Errorf/Sprintf/Sprint/Sprintln/Append*,
// errors.New/Join at call time, strconv.Format*/Itoa/Quote,
// non-constant string concatenation, map/slice composite literals,
// make/new, taking the address of a composite literal, closures that
// capture variables, spawning goroutines, and boxing a non-pointer
// value into an interface. A genuinely cold branch inside a hot
// function (a validation failure, a once-per-process init) is
// exempted at the allocation site with //nc:allow(hotpath) <reason>;
// exempted sites never enter a summary.
//
// Calls the analyzer cannot resolve statically (function values,
// interface methods) are not followed — keep hot paths monomorphic.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"netcoord/tools/nclint/internal/nclib"
	"netcoord/tools/nclint/internal/ncutil"
)

// AllocSite is one reachable allocator, with the call chain that
// reaches it when it is not in the annotated function itself.
type AllocSite struct {
	Pos  string // file:line of the allocator
	What string // human description, including the via-chain
}

// Fact is the exported bottom-up summary of one function: the
// allocator sites it can reach. Functions with no reachable
// allocators export nothing.
type Fact struct {
	Sites []AllocSite
}

func (*Fact) AFact() {}

// maxSitesPerFunc bounds summary size (and finding noise): a function
// that allocates in forty places needs a fix, not forty findings.
const maxSitesPerFunc = 4

var Analyzer = &nclib.Analyzer{
	Name: "hotpath",
	Doc:  "//nc:hotpath functions must not reach allocators, transitively through project calls",
	Run:  run,
}

// funcInfo is the per-function scratch state for the fixed point.
type funcInfo struct {
	obj     *types.Func
	decl    *ast.FuncDecl
	hot     bool
	direct  []AllocSite
	callees []*types.Func
}

func run(pass *nclib.Pass) error {
	infos := make(map[*types.Func]*funcInfo)
	var order []*funcInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{obj: obj, decl: fd, hot: ncutil.HasAnnotation(fd.Doc, "hotpath")}
			scanBody(pass, fd, fi)
			infos[obj] = fi
			order = append(order, fi)
		}
	}

	// Fixed point within the package: merge callee summaries (local
	// ones iteratively, cross-package ones from facts) into callers
	// until stable.
	summaries := make(map[*types.Func][]AllocSite, len(infos))
	for _, fi := range order {
		summaries[fi.obj] = fi.direct
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range order {
			cur := summaries[fi.obj]
			if len(cur) >= maxSitesPerFunc {
				continue
			}
			for _, callee := range fi.callees {
				var calleeSites []AllocSite
				if local, ok := infos[callee]; ok {
					calleeSites = summaries[local.obj]
				} else if pass.IsProject(callee.Pkg()) {
					var f Fact
					if pass.ImportObjectFact(callee, &f) {
						calleeSites = f.Sites
					}
				}
				for _, s := range calleeSites {
					via := AllocSite{Pos: s.Pos, What: fmt.Sprintf("call to %s → %s", callee.Name(), s.What)}
					if addSite(&cur, via) {
						changed = true
					}
					if len(cur) >= maxSitesPerFunc {
						break
					}
				}
				if len(cur) >= maxSitesPerFunc {
					break
				}
			}
			summaries[fi.obj] = cur
		}
	}

	for _, fi := range order {
		sites := summaries[fi.obj]
		if len(sites) > 0 {
			pass.ExportObjectFact(fi.obj, &Fact{Sites: sites})
		}
		if fi.hot {
			for _, s := range sites {
				pass.Reportf(fi.decl.Name.Pos(), "hot path %s reaches allocation: %s (at %s)", fi.obj.Name(), s.What, s.Pos)
			}
		}
	}
	return nil
}

// addSite appends s to *sites unless an equivalent site (same
// position) is already present or the cap is reached.
func addSite(sites *[]AllocSite, s AllocSite) bool {
	if len(*sites) >= maxSitesPerFunc {
		return false
	}
	for _, have := range *sites {
		if have.Pos == s.Pos {
			return false
		}
	}
	*sites = append(*sites, s)
	return true
}

// allocFuncs are the package-level functions treated as allocators at
// call time.
var allocFuncs = map[string]map[string]bool{
	"fmt": {"Errorf": true, "Sprintf": true, "Sprint": true, "Sprintln": true,
		"Appendf": true, "Append": true, "Appendln": true},
	"errors":  {"New": true, "Join": true},
	"strconv": {"FormatInt": true, "FormatUint": true, "FormatFloat": true, "Itoa": true, "Quote": true, "AppendQuote": true},
}

// scanBody records fd's direct allocator sites (minus //nc:allow'd
// ones) and its statically resolvable call edges.
func scanBody(pass *nclib.Pass, fd *ast.FuncDecl, fi *funcInfo) {
	info := pass.TypesInfo
	site := func(pos token.Pos, format string, args ...any) {
		if pass.Allowed(pos) {
			return
		}
		p := pass.Fset.Position(pos)
		fi.direct = append(fi.direct, AllocSite{
			Pos:  fmt.Sprintf("%s:%d", p.Filename, p.Line),
			What: fmt.Sprintf(format, args...),
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := ncutil.StaticCallee(info, n); callee != nil {
				if callee.Pkg() != nil {
					if names, ok := allocFuncs[callee.Pkg().Path()]; ok && names[callee.Name()] && ncutil.NamedRecv(callee) == nil {
						site(n.Pos(), "call to %s.%s", callee.Pkg().Name(), callee.Name())
						return true // args feed the flagged call; don't double-report boxing
					}
				}
				// An allow on the call line suppresses everything the
				// callee would contribute to this function's summary.
				if !pass.Allowed(n.Pos()) {
					fi.callees = append(fi.callees, callee)
				}
				checkCallBoxing(pass, site, n, callee)
			}
			// Builtins make/new.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						site(n.Pos(), "make")
					case "new":
						site(n.Pos(), "new")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				site(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info, n.Lhs[0]) {
				site(n.Pos(), "string concatenation (+=)")
			}
			checkAssignBoxing(pass, site, n)
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				site(n.Pos(), "map literal")
			case *types.Slice:
				site(n.Pos(), "slice literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					site(n.Pos(), "address of composite literal")
				}
			}
		case *ast.GoStmt:
			site(n.Pos(), "goroutine spawn")
		case *ast.FuncLit:
			if capt := capturedVar(pass, fd, n); capt != "" && !callsDirectly(fd.Body, n) {
				site(n.Pos(), "closure captures %q", capt)
			}
			return false // closure bodies are not the hot path's own code
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, site, fd, n)
		}
		return true
	})
}

func isString(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	if !isString(info, e) {
		return false
	}
	return info.Types[e].Value == nil // constant-folded concatenation is free
}

// boxes reports whether assigning from-typed value expr to an
// interface target allocates: the source is a concrete, non-pointer-
// shaped, non-constant value.
func boxes(info *types.Info, target types.Type, arg ast.Expr) bool {
	if target == nil || !types.IsInterface(target) {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Basic:
		switch u := tv.Type.Underlying().(type) {
		case *types.Basic:
			if u.Kind() == types.UnsafePointer {
				return false
			}
			return true // non-constant basic value boxes
		default:
			return false // pointer-shaped: fits the interface word
		}
	}
	return true // structs, arrays, slices, named aggregates box
}

func checkCallBoxing(pass *nclib.Pass, site func(token.Pos, string, ...any), call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(pass.TypesInfo, pt, arg) {
			site(arg.Pos(), "boxing %s into %s (argument to %s)", types.ExprString(arg), pt, callee.Name())
		}
	}
}

func checkAssignBoxing(pass *nclib.Pass, site func(token.Pos, string, ...any), n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := pass.TypesInfo.Types[lhs].Type
		if n.Tok == token.DEFINE {
			continue // inferred type: no conversion happens
		}
		if boxes(pass.TypesInfo, lt, n.Rhs[i]) {
			site(n.Rhs[i].Pos(), "boxing %s into %s", types.ExprString(n.Rhs[i]), lt)
		}
	}
}

func checkReturnBoxing(pass *nclib.Pass, site func(token.Pos, string, ...any), fd *ast.FuncDecl, n *ast.ReturnStmt) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if len(n.Results) != results.Len() {
		return
	}
	for i, r := range n.Results {
		if boxes(pass.TypesInfo, results.At(i).Type(), r) {
			site(r.Pos(), "boxing %s into returned %s", types.ExprString(r), results.At(i).Type())
		}
	}
}

// capturedVar returns the name of a variable n captures from its
// enclosing function, or "".
func capturedVar(pass *nclib.Pass, fd *ast.FuncDecl, n *ast.FuncLit) string {
	var captured string
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != pass.Pkg {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() {
			return true // package-level: not a capture
		}
		if v.Pos() < n.Pos() || v.Pos() > n.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

// callsDirectly reports whether lit only ever appears as the callee of
// an immediate call or a direct defer — forms the compiler keeps off
// the heap.
func callsDirectly(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	direct := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if ast.Unparen(n.Fun) == lit {
				direct = true
			}
		case *ast.DeferStmt:
			if ast.Unparen(n.Call.Fun) == lit {
				direct = true
			}
		}
		return true
	})
	return direct
}
