package nclib

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"strings"
)

// allowComment is one parsed //nc:allow(<analyzers>) <reason> comment.
// It suppresses findings of the named analyzers on its own line and on
// the line directly below it (so it works both as a trailing comment
// and as a standalone line above the finding).
type allowComment struct {
	pos       token.Position
	analyzers []string
	reason    string
}

var allowRe = regexp.MustCompile(`^//\s*nc:allow\(([^)]*)\)\s*(.*)$`)

// scanAllows records every //nc:allow comment in f so both fact
// computation (Pass.Allowed) and the driver's diagnostic filter see
// the same suppressions.
func (prog *Program) scanAllows(filename string, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			var names []string
			for _, n := range strings.Split(m[1], ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
			prog.allows[filename] = append(prog.allows[filename], allowComment{
				pos:       prog.Fset.Position(c.Pos()),
				analyzers: names,
				reason:    strings.TrimSpace(m[2]),
			})
		}
	}
}

// allowed reports whether a finding of analyzer name at pos is
// suppressed. Suppressions without a reason do not suppress — they
// are themselves findings (see allowFindings) — so an unexplained
// allow can never silently mute the tree.
func (prog *Program) allowed(name string, pos token.Position) bool {
	for _, a := range prog.allows[pos.Filename] {
		if a.reason == "" {
			continue
		}
		if (pos.Line == a.pos.Line || pos.Line == a.pos.Line+1) && slices.Contains(a.analyzers, name) {
			return true
		}
	}
	return false
}

// allowFindings reports malformed suppressions: an //nc:allow with no
// reason string, or one naming an unknown analyzer. These come from
// the driver itself (analyzer name "allow") and cannot be suppressed.
func (prog *Program) allowFindings(known map[string]bool) []Diagnostic {
	var ds []Diagnostic
	for _, allows := range prog.allows {
		for _, a := range allows {
			if a.reason == "" {
				ds = append(ds, Diagnostic{
					Position: a.pos,
					Analyzer: "allow",
					Message:  "//nc:allow requires a reason: //nc:allow(analyzer) <why this finding is acceptable>",
				})
			}
			if len(a.analyzers) == 0 {
				ds = append(ds, Diagnostic{
					Position: a.pos,
					Analyzer: "allow",
					Message:  "//nc:allow names no analyzer",
				})
			}
			for _, n := range a.analyzers {
				if !known[n] {
					ds = append(ds, Diagnostic{
						Position: a.pos,
						Analyzer: "allow",
						Message:  fmt.Sprintf("//nc:allow names unknown analyzer %q", n),
					})
				}
			}
		}
	}
	return ds
}
