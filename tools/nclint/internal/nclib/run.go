package nclib

import (
	"fmt"
)

// RunAnalyzers runs every analyzer over every project package of prog
// in dependency order, then runs Finalize hooks, then filters the
// findings through //nc:allow suppressions and appends malformed-allow
// findings. The returned diagnostics are sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := factStore{}
	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				prog:      prog,
				report:    report,
				facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("nclib: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finalize != nil {
			name := a.Name
			a.Finalize(prog, func(d Diagnostic) {
				d.Analyzer = name
				raw = append(raw, d)
			})
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if prog.allowed(d.Analyzer, d.Position) {
			continue
		}
		out = append(out, d)
	}
	out = append(out, prog.allowFindings(known)...)
	sortDiagnostics(out)
	return out, nil
}
