package main

import (
	"reflect"
	"strings"
	"testing"
	"testing/fstest"
)

// module is a small module tree: a library package with a method, a
// generic method and a function, a command, and a tool with a library
// of its own.
var module = fstest.MapFS{
	"go.mod": {Data: []byte("module example.com/m\n\ngo 1.24\n")},
	"lib/lib.go": {Data: []byte(`package lib

type T struct{}

func (t *T) Used() {}

func (T) Unused() {}

type G[K comparable] struct{}

func (g *G[K]) Get() {}

func Free() {}
`)},
	"cmd/tool/main.go":                     {Data: []byte("package main\n\nfunc main() {}\n")},
	"tools/nclint/main.go":                 {Data: []byte("package main\n\nfunc main() {}\n")},
	"tools/nclint/internal/nclib/nclib.go": {Data: []byte("package nclib\n\nfunc Run() {}\n")},
}

// line builds one `go tool cover -func` report line.
func line(pos, fn, pct string) string { return pos + "\t\t" + fn + "\t\t" + pct + "\n" }

func TestGate(t *testing.T) {
	const total = "total:\t\t(statements)\t\t83.2%\n"
	for _, tc := range []struct {
		name         string
		report       string
		allowed      map[string]string
		unrun, stale []string
		functions    int
		err          string
	}{
		{
			name:      "all run",
			report:    line("example.com/m/lib/lib.go:5:", "Used", "100.0%") + line("example.com/m/lib/lib.go:13:", "Free", "50.0%") + total,
			functions: 2,
		},
		{
			name:      "unrun method, generic method and function are named with their receivers",
			report:    line("example.com/m/lib/lib.go:7:", "Unused", "0.0%") + line("example.com/m/lib/lib.go:11:", "Get", "0.0%") + line("example.com/m/lib/lib.go:13:", "Free", "0.0%") + total,
			unrun:     []string{"lib.Free", "lib.G.Get", "lib.T.Unused"},
			functions: 3,
		},
		{
			name:      "allowlisted unrun function passes",
			report:    line("example.com/m/lib/lib.go:7:", "Unused", "0.0%") + total,
			allowed:   map[string]string{"lib.T.Unused": "reason"},
			functions: 1,
		},
		{
			name:      "allowlisted function that runs is stale",
			report:    line("example.com/m/lib/lib.go:7:", "Unused", "25.0%") + total,
			allowed:   map[string]string{"lib.T.Unused": "reason"},
			stale:     []string{"lib.T.Unused"},
			functions: 1,
		},
		{
			name:      "allowlisted function that is gone is stale",
			report:    line("example.com/m/lib/lib.go:5:", "Used", "100.0%") + total,
			allowed:   map[string]string{"lib.T.Gone": "reason"},
			stale:     []string{"lib.T.Gone"},
			functions: 1,
		},
		{
			name:   "commands are exempt",
			report: line("example.com/m/cmd/tool/main.go:3:", "main", "0.0%") + total,
		},
		{
			name:      "the lint's library is gated, its main is not",
			report:    line("example.com/m/tools/nclint/main.go:3:", "main", "0.0%") + line("example.com/m/tools/nclint/internal/nclib/nclib.go:3:", "Run", "0.0%") + total,
			unrun:     []string{"nclib.Run"},
			functions: 1,
		},
		{
			name:   "missing total",
			report: line("example.com/m/lib/lib.go:5:", "Used", "100.0%"),
			err:    "no total line",
		},
		{
			name:   "position with no function",
			report: line("example.com/m/lib/lib.go:4:", "Used", "0.0%") + total,
			err:    "no function Used declared there",
		},
		{
			name:   "file outside the module",
			report: line("other.org/x/x.go:1:", "F", "0.0%") + total,
			err:    "outside module example.com/m",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := gate(module, strings.NewReader(tc.report), tc.allowed)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total != "83.2%" || rep.Functions != tc.functions {
				t.Fatalf("total %q over %d functions, want 83.2%% over %d", rep.Total, rep.Functions, tc.functions)
			}
			if !reflect.DeepEqual(rep.Unrun, tc.unrun) || !reflect.DeepEqual(rep.Stale, tc.stale) {
				t.Fatalf("unrun %v stale %v, want %v and %v", rep.Unrun, rep.Stale, tc.unrun, tc.stale)
			}
		})
	}
}

func TestParseAllowlist(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		want       map[string]string
		err        string
	}{
		{"comments and blanks", "# header\n\npkg.F why it stays\n", map[string]string{"pkg.F": "why it stays"}, ""},
		{"no reason", "pkg.F\n", nil, "pkg.F has no reason"},
		{"duplicate", "pkg.F a\npkg.F b\n", nil, "listed twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseAllowlist(tc.text)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

// TestCommittedAllowlistParses keeps allowlist.txt well-formed: every
// entry carries a reason.
func TestCommittedAllowlistParses(t *testing.T) {
	allowed, err := parseAllowlist(allowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(allowed) == 0 {
		t.Fatal("allowlist.txt is empty")
	}
}
