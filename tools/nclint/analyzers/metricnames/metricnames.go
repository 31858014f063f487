// Package metricnames keeps the telemetry namespace coherent. Every
// metric name literal that reaches a telemetry.Registry registration
// call must:
//
//   - be a compile-time constant, so the namespace is statically
//     auditable (no fmt.Sprintf'd metric names);
//   - satisfy the Prometheus naming charset — the same
//     telemetry.ValidateMetricName the runtime enforces, so the
//     analyzer and the registry can never disagree;
//   - carry the netcoord_ prefix that scopes this service's metrics;
//   - map to exactly one metric kind across the whole build (a name
//     registered as a counter in one package and a gauge in another is
//     a finding at the second site);
//   - appear in the README's metric catalog, either verbatim or under
//     a documented netcoord_foo_* wildcard (whole-program check,
//     module mode only).
//
// Label keys in telemetry.Labels literals are validated the same way
// via telemetry.ValidateLabelName.
package metricnames

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"netcoord/internal/telemetry"
	"netcoord/tools/nclint/internal/nclib"
	"netcoord/tools/nclint/internal/ncutil"
)

var Analyzer = &nclib.Analyzer{
	Name:     "metricnames",
	Doc:      "metric names must be constant, valid, netcoord_-prefixed, kind-unique across the build, and cataloged in README",
	Run:      run,
	Finalize: finalize,
}

// telemetryPkg is the package whose Registry anchors the check — the
// real one in the module, the stub under testdata in fixtures (GOPATH
// layout yields the same import path).
const telemetryPkg = "netcoord/internal/telemetry"

// methodKind maps Registry method names to the metric kind they
// register.
var methodKind = map[string]string{
	"Counter":     "counter",
	"CounterFunc": "counter",
	"Gauge":       "gauge",
	"GaugeFunc":   "gauge",
	"Histogram":   "histogram",
	"SummaryFunc": "summary",
}

// A decl records one registration site for the whole-program checks.
type decl struct {
	Name string
	Kind string
	Pos  token.Position
}

// declsMu guards decls, the accumulator Finalize consumes. Package
// state rather than facts because kind-uniqueness and the README
// catalog are whole-program properties, and Finalize deliberately has
// no per-package fact channel.
var (
	declsMu sync.Mutex
	decls   []decl
)

func run(pass *nclib.Pass) error {
	if pass.Pkg.Path() == telemetryPkg {
		// The registry's own code passes names through parameters;
		// the check applies to the call sites that supply the literals.
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := ncutil.StaticCallee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			recv := ncutil.NamedRecv(callee)
			if recv == nil || recv.Obj().Name() != "Registry" ||
				recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != telemetryPkg {
				return true
			}
			kind, ok := methodKind[callee.Name()]
			if !ok || len(call.Args) == 0 {
				return true
			}
			checkRegistration(pass, call, kind)
			return true
		})
	}
	checkLabelLiterals(pass)
	return nil
}

func checkRegistration(pass *nclib.Pass, call *ast.CallExpr, kind string) {
	nameArg := call.Args[0]
	tv, ok := pass.TypesInfo.Types[nameArg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(nameArg.Pos(), "metric name must be a compile-time constant string, not a computed value")
		return
	}
	name := constant.StringVal(tv.Value)
	if err := telemetry.ValidateMetricName(name); err != nil {
		pass.Reportf(nameArg.Pos(), "metric name %q: %v", name, err)
		return
	}
	if !strings.HasPrefix(name, "netcoord_") {
		pass.Reportf(nameArg.Pos(), "metric name %q lacks the netcoord_ namespace prefix", name)
		return
	}
	if pass.Allowed(nameArg.Pos()) {
		return // suppressed sites stay out of the whole-program set too
	}
	declsMu.Lock()
	decls = append(decls, decl{Name: name, Kind: kind, Pos: pass.Fset.Position(nameArg.Pos())})
	declsMu.Unlock()
}

// checkLabelLiterals validates the keys of telemetry.Labels composite
// literals anywhere in the package.
func checkLabelLiterals(pass *nclib.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || tv.Type == nil {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok || named.Obj().Name() != "Labels" ||
				named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != telemetryPkg {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				ktv, ok := pass.TypesInfo.Types[kv.Key]
				if !ok || ktv.Value == nil || ktv.Value.Kind() != constant.String {
					continue
				}
				key := constant.StringVal(ktv.Value)
				if err := telemetry.ValidateLabelName(key); err != nil {
					pass.Reportf(kv.Key.Pos(), "label name %q: %v", key, err)
				}
			}
			return true
		})
	}
}

// finalize runs the whole-program checks: one kind per name across the
// build, and README catalog coverage.
func finalize(prog *nclib.Program, report func(nclib.Diagnostic)) {
	declsMu.Lock()
	all := decls
	decls = nil
	declsMu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})

	kinds := make(map[string]decl)
	for _, d := range all {
		first, seen := kinds[d.Name]
		if !seen {
			kinds[d.Name] = d
			continue
		}
		if first.Kind != d.Kind {
			report(nclib.Diagnostic{
				Position: d.Pos,

				Message: "metric " + d.Name + " registered as " + d.Kind +
					" here but as " + first.Kind + " at " + first.Pos.String(),
			})
		}
	}

	// README catalog coverage: module mode only. Fixture programs have
	// no ModuleDir and skip this leg.
	if prog.ModuleDir == "" {
		return
	}
	readme, err := os.ReadFile(filepath.Join(prog.ModuleDir, "README.md"))
	if err != nil {
		report(nclib.Diagnostic{

			Message: "cannot read README.md for the metric catalog check: " + err.Error(),
		})
		return
	}
	text := string(readme)
	wildcards := wildcardRe.FindAllString(text, -1)
	for _, d := range all {
		if strings.Contains(text, d.Name) || matchesWildcard(d.Name, wildcards) {
			continue
		}
		report(nclib.Diagnostic{
			Position: d.Pos,

			Message: "metric " + d.Name + " is not documented in README.md's metric catalog",
		})
	}
}

// wildcardRe finds documented metric-name prefixes like
// `netcoord_propagation_*` in README prose.
var wildcardRe = regexp.MustCompile(`netcoord_[a-z0-9_]*\*`)

func matchesWildcard(name string, wildcards []string) bool {
	for _, w := range wildcards {
		if strings.HasPrefix(name, strings.TrimSuffix(w, "*")) {
			return true
		}
	}
	return false
}
