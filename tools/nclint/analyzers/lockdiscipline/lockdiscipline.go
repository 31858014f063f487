// Package lockdiscipline machine-checks the repository's
// caller-holds-the-lock convention. A function annotated
// //nc:locked(<mutex>) (the *Locked methods of the changefeed and the
// WatchHub, the registry's feed-publish helper) may only be called
// where the named lock is demonstrably held:
//
//   - the calling function contains <mutex>.Lock() before the call on
//     the lexical path to it (an Unlock on a fall-through path in
//     between revokes it; deferred Unlocks and early-return branches
//     do not), or
//   - the calling function itself carries //nc:locked(<mutex>) for
//     the same lock, pushing the obligation to its callers — this is
//     how the obligation crosses package boundaries, via facts.
//
// The annotation grammar: a bare name (//nc:locked(mu)) binds to the
// callee's receiver, so a call site f.deliverLocked(ev) requires
// f.mu; a dotted path (//nc:locked(s.mu)) matches call-site text
// literally, for locks that are not a field of the receiver.
//
// The check is lexical and lightly flow-sensitive by design — it
// cannot prove lock ownership, only that the convention is visibly
// followed. Exotic shapes earn an //nc:allow(lockdiscipline) <reason>.
//
// The analyzer also flags mixed atomic/plain access: a field that is
// anywhere passed to sync/atomic functions (atomic.AddUint64(&s.n))
// must be accessed through sync/atomic everywhere in the package —
// a plain read of such a field is a data race the race detector only
// catches when a test happens to interleave it.
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"netcoord/tools/nclint/internal/nclib"
	"netcoord/tools/nclint/internal/ncutil"
)

// Fact marks a function whose callers must hold Lock.
type Fact struct {
	Lock string
}

func (*Fact) AFact() {}

var Analyzer = &nclib.Analyzer{
	Name: "lockdiscipline",
	Doc:  "//nc:locked(mu) callees require the lock visibly held at every call site; atomic fields must not be read plainly",
	Run:  run,
}

func run(pass *nclib.Pass) error {
	// Local annotated functions, exported as facts for dependents.
	local := make(map[*types.Func]string)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if lock, ok := ncutil.LockedAnnotation(fd.Doc); ok {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					local[obj] = lock
					pass.ExportObjectFact(obj, &Fact{Lock: lock})
				}
			}
		}
	}

	lockOf := func(callee *types.Func) (string, bool) {
		if lock, ok := local[callee]; ok {
			return lock, true
		}
		if pass.IsProject(callee.Pkg()) {
			var f Fact
			if pass.ImportObjectFact(callee, &f) {
				return f.Lock, true
			}
		}
		return "", false
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCalls(pass, fd, lockOf)
		}
	}

	checkAtomicFields(pass)
	return nil
}

// checkCalls verifies every locked-callee call inside fd.
func checkCalls(pass *nclib.Pass, fd *ast.FuncDecl, lockOf func(*types.Func) (string, bool)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := ncutil.StaticCallee(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		lock, ok := lockOf(callee)
		if !ok {
			return true
		}
		required := requiredLock(call, lock)
		if required == "" {
			pass.Reportf(call.Pos(), "cannot determine the %q lock for this call to %s; name it explicitly in the annotation", lock, callee.Name())
			return true
		}
		if grantedByAnnotation(pass, fd, required) {
			return true
		}
		if lockHeldAt(fd, call, required) {
			return true
		}
		pass.Reportf(call.Pos(), "call to %s requires %s held: no %s.Lock() on the path to this call (annotate the caller //nc:locked(%s) or take the lock)",
			callee.Name(), required, required, lock)
		return true
	})
}

// requiredLock renders the lock expression the call site must hold: a
// bare annotation name binds to the call's receiver expression, a
// dotted one is literal.
func requiredLock(call *ast.CallExpr, lock string) string {
	if strings.Contains(lock, ".") {
		return lock
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X) + "." + lock
	}
	// Plain ident call to a package-level function with a bare lock
	// name: nothing to bind the receiver to.
	return ""
}

// grantedByAnnotation reports whether fd's own //nc:locked annotation
// covers required.
func grantedByAnnotation(pass *nclib.Pass, fd *ast.FuncDecl, required string) bool {
	lock, ok := ncutil.LockedAnnotation(fd.Doc)
	if !ok {
		return false
	}
	if strings.Contains(lock, ".") {
		return lock == required
	}
	// Bare name: binds to fd's receiver name.
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return false
	}
	return fd.Recv.List[0].Names[0].Name+"."+lock == required
}

// lockHeldAt reports whether required.Lock() is visibly held at call
// within fd: some statement before the call on its lexical path takes
// the lock, with no fall-through Unlock in between. Unlocks inside
// nested early-exit branches (containing a return) and deferred
// Unlocks do not revoke it.
func lockHeldAt(fd *ast.FuncDecl, call *ast.CallExpr, required string) bool {
	held := false
	var scanBlock func(stmts []ast.Stmt) bool // reports whether the call was reached
	scanBlock = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			if s.End() < call.Pos() {
				// Entirely before the call: update held state.
				switch st := s.(type) {
				case *ast.ExprStmt:
					if isLockCall(st.X, required, "Lock") || isLockCall(st.X, required, "RLock") {
						held = true
					}
					if isLockCall(st.X, required, "Unlock") || isLockCall(st.X, required, "RUnlock") {
						held = false
					}
				case *ast.DeferStmt:
					// Deferred unlocks run at exit: no effect here.
				default:
					if unlocksOnFallthrough(s, required) {
						held = false
					} else if containsLock(s, required) {
						// A nested conditional Lock is not proof; but a
						// nested Lock with no Unlock on a fall-through
						// path (lock-then-branch shapes) is treated as
						// held — the common `if !locked { mu.Lock() }`
						// does not occur in this codebase.
						held = true
					}
				}
				continue
			}
			if s.Pos() <= call.Pos() && call.End() <= s.End() {
				// The call is inside this statement: descend into its
				// blocks, processing any same-statement prefix first.
				for _, inner := range childBlocks(s) {
					if scanBlock(inner) {
						return true
					}
				}
				return true
			}
		}
		return false
	}
	scanBlock(fd.Body.List)
	return held
}

// childBlocks returns the statement lists nested directly in s, in
// source order.
func childBlocks(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch st := s.(type) {
	case *ast.BlockStmt:
		out = append(out, st.List)
	case *ast.IfStmt:
		out = append(out, st.Body.List)
		if st.Else != nil {
			out = append(out, childBlocks(st.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, st.Body.List)
	case *ast.RangeStmt:
		out = append(out, st.Body.List)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, childBlocks(st.Stmt)...)
	case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt, *ast.AssignStmt, *ast.ReturnStmt:
	}
	return out
}

// isLockCall reports whether e is required.<method>().
func isLockCall(e ast.Expr, required, method string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	return types.ExprString(sel.X) == required
}

// unlocksOnFallthrough reports whether s contains an Unlock of
// required on a path that can fall through past s — i.e. the branch
// holding the Unlock does not end in a return. Heuristic: if s
// contains an Unlock and no return statement, the unlock falls
// through.
func unlocksOnFallthrough(s ast.Stmt, required string) bool {
	unlocks, returns := false, false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if isLockCall(n.X, required, "Unlock") || isLockCall(n.X, required, "RUnlock") {
				unlocks = true
			}
		case *ast.ReturnStmt:
			returns = true
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return unlocks && !returns
}

// containsLock reports whether s contains required.Lock() anywhere
// (outside nested function literals).
func containsLock(s ast.Stmt, required string) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if isLockCall(n.X, required, "Lock") || isLockCall(n.X, required, "RLock") {
				found = true
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return found
}

// checkAtomicFields flags plain accesses of struct fields that are
// elsewhere in the package manipulated through sync/atomic functions.
func checkAtomicFields(pass *nclib.Pass) {
	atomicFields := make(map[*types.Var]bool)
	inAtomicCall := make(map[*ast.SelectorExpr]bool)

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := ncutil.StaticCallee(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if v := fieldOf(pass.TypesInfo, sel); v != nil {
					atomicFields[v] = true
					inAtomicCall[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomicCall[sel] {
				return true
			}
			v := fieldOf(pass.TypesInfo, sel)
			if v == nil || !atomicFields[v] {
				return true
			}
			pass.Reportf(sel.Pos(), "field %s is accessed with sync/atomic elsewhere in this package; plain access races — use the atomic helpers", v.Name())
			return true
		})
	}
}

// fieldOf resolves sel to the struct field it selects, if any.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
