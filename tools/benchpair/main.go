// Command benchpair measures a change against a base revision in
// alternating pairs, so that the drift of a shared machine falls on
// both sides alike, and writes every run and the verdict as one JSON
// file to commit beside the claim it backs.
//
//	go run ./tools/benchpair -go-bench -base HEAD -bench '^BenchmarkRecover$' \
//	    -cpu 1,2 -pairs 10 -out pairs/recover.json . ./internal/server
//
// -go-bench, the one mode so far, builds a `go test -c` binary of each
// package twice: once from the base revision, checked out with `git
// worktree add` under .bench_build/benchpair/ (and removed on exit),
// and once from the work tree as it stands, uncommitted changes
// included. Each _test.go file of a package that the base revision
// lacks is copied into the base checkout first, so that a benchmark the
// change adds is paired too; a benchmark that still runs on one side
// only fails the run. Each pair then runs both binaries with the same
// -bench, -cpu and -benchtime, base first in even pairs and the change
// first in odd ones. The summary holds, per package, benchmark, procs and
// metric, each side's median and quartiles, the quartiles of the
// per-pair changes, in how many pairs the change did better — overall
// and among the pairs it ran first, which shows an order effect — and a
// verdict on those changes (see verdict).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"netcoord/tools/internal/benchfmt"
)

// report is the JSON benchpair writes.
type report struct {
	// Base is the revision as given, BaseSHA what it resolved to.
	Base    string `json:"base"`
	BaseSHA string `json:"base_sha"`
	// HeadSHA is the work tree's HEAD; HeadDirty says uncommitted
	// changes were part of what was measured.
	HeadSHA   string `json:"head_sha"`
	HeadDirty bool   `json:"head_dirty"`

	Packages  []string `json:"packages"`
	Bench     string   `json:"bench"`
	CPU       string   `json:"cpu"`
	Benchtime string   `json:"benchtime"`
	Pairs     int      `json:"pairs"`
	// Machine is the processor the benchmarks report, GOOS/GOARCH and
	// the number of CPUs the runs could use.
	Machine string `json:"machine"`

	Runs    []run     `json:"runs"`
	Summary []summary `json:"summary"`
}

// run is one execution of one side's binary for one package.
type run struct {
	Pair    int               `json:"pair"`
	Side    string            `json:"side"`
	First   bool              `json:"first"`
	Package string            `json:"package"`
	Results []benchfmt.Result `json:"results"`
}

// runTimeout bounds one run of one binary, so a benchmark that hangs
// fails the pair instead of stalling it.
const runTimeout = "30m"

// Sides of a pair.
const (
	sideBase = "base"
	sideHead = "head"
)

func main() {
	if err := benchpair(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(1)
	}
}

func benchpair(args []string) error {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	goBench := fs.Bool("go-bench", false, "pair go test benchmarks of the base revision and the work tree")
	base := fs.String("base", "HEAD", "base revision")
	bench := fs.String("bench", "", "benchmark regexp, as go test -bench (required)")
	cpu := fs.String("cpu", "1,2", "GOMAXPROCS list, as go test -cpu")
	benchtime := fs.String("benchtime", "1s", "per-benchmark time, as go test -benchtime")
	pairs := fs.Int("pairs", 10, "alternating pairs to run")
	out := fs.String("out", "", "write the JSON here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case !*goBench:
		return errors.New("-go-bench is the only mode; pass it")
	case *bench == "":
		return errors.New("-bench is required")
	case *pairs < 1:
		return fmt.Errorf("-pairs %d, want >= 1", *pairs)
	}
	pkgs := fs.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}

	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rep := report{Base: *base, Packages: pkgs, Bench: *bench, CPU: *cpu, Benchtime: *benchtime, Pairs: *pairs}
	if rep.BaseSHA, err = git(root, "rev-parse", "--verify", *base+"^{commit}"); err != nil {
		return err
	}
	if rep.HeadSHA, err = git(root, "rev-parse", "HEAD"); err != nil {
		return err
	}
	status, err := git(root, "status", "--porcelain")
	if err != nil {
		return err
	}
	rep.HeadDirty = status != ""

	work := filepath.Join(root, ".bench_build", "benchpair")
	baseTree := filepath.Join(work, "base")
	_, _ = git(root, "worktree", "remove", "--force", baseTree) // a worktree left by an interrupted run
	if err := os.RemoveAll(baseTree); err != nil {
		return err
	}
	if _, err := git(root, "worktree", "add", "--detach", baseTree, rep.BaseSHA); err != nil {
		return err
	}
	defer func() { _, _ = git(root, "worktree", "remove", "--force", baseTree) }()
	for _, pkg := range pkgs {
		if err := copyMissingTests(filepath.Join(root, pkg), filepath.Join(baseTree, pkg)); err != nil {
			return err
		}
	}

	trees := map[string]string{sideBase: baseTree, sideHead: root}
	bins := map[string][]string{}
	for _, side := range []string{sideBase, sideHead} {
		for i, pkg := range pkgs {
			bin := filepath.Join(work, "bin", side, fmt.Sprintf("pkg%d.test", i))
			fmt.Fprintf(os.Stderr, "benchpair: building %s %s\n", side, pkg)
			build := exec.Command("go", "test", "-c", "-o", bin, pkg)
			build.Dir, build.Stdout, build.Stderr = trees[side], os.Stderr, os.Stderr
			if err := build.Run(); err != nil {
				return fmt.Errorf("building %s of %s: %w", pkg, side, err)
			}
			bins[side] = append(bins[side], bin)
		}
	}

	cpuModel := ""
	for p := 0; p < *pairs; p++ {
		order := []string{sideBase, sideHead}
		if p%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for i, pkg := range pkgs {
			for j, side := range order {
				fmt.Fprintf(os.Stderr, "benchpair: pair %d/%d %s %s\n", p+1, *pairs, side, pkg)
				cmd := exec.Command(bins[side][i], "-test.run", "^$", "-test.bench", *bench, "-test.benchmem",
					"-test.cpu", *cpu, "-test.benchtime", *benchtime, "-test.timeout", runTimeout)
				cmd.Dir = filepath.Join(trees[side], pkg)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("pair %d, %s %s: %w\n%s", p, side, pkg, err, stdout.Bytes())
				}
				doc, err := benchfmt.Parse(bufio.NewScanner(&stdout))
				if err != nil {
					return fmt.Errorf("pair %d, %s %s: %w", p, side, pkg, err)
				}
				cpuModel = doc.CPU
				rep.Runs = append(rep.Runs, run{Pair: p, Side: side, First: j == 0, Package: pkg, Results: doc.Results})
			}
		}
	}
	rep.Machine = fmt.Sprintf("%s, %s/%s, %d CPUs", cpuModel, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	if rep.Summary, err = summarize(rep.Runs); err != nil {
		return err
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(*out, doc, 0o644)
}

// copyMissingTests copies into the base package dir each _test.go file
// of the work tree's that the base lacks, so that a benchmark the
// change adds runs on both sides. A file the base has is never
// overwritten: the base measures its own version of it.
func copyMissingTests(headDir, baseDir string) error {
	files, err := filepath.Glob(filepath.Join(headDir, "*_test.go"))
	if err != nil {
		return err
	}
	for _, src := range files {
		dst := filepath.Join(baseDir, filepath.Base(src))
		if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
			if err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchpair: base lacks %s; copying it from the work tree\n", dst)
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// git runs git in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
