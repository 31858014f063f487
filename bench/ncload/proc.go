package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Deadlines for the waits ncload performs on its children.
const (
	buildTimeout = 10 * time.Minute
	startTimeout = 90 * time.Second
	stopTimeout  = 15 * time.Second
)

// procs owns everything ncload leaves outside its own memory: the
// ncserve binary, every child process and every scratch directory.
// close undoes all of it, on the normal path, on SIGINT and on panic.
type procs struct {
	work     string // scratch root; everything ncload writes is below it
	ownsWork bool   // work was created by ncload and is removed on close
	ncserve  string // path of the built binary

	mu       sync.Mutex
	children []*child
	dirs     []string
	early    error // first child that exited without being asked to
}

// child is one running ncserve.
type child struct {
	name  string
	cmd   *exec.Cmd
	url   string // http://127.0.0.1:port of the service listener
	debug string // http://127.0.0.1:port of -debug-addr, if requested
	// banner is the first stdout line (the recovery or follower report).
	banner string

	exited   chan struct{} // closed once Wait has returned
	stopping bool          // guarded by procs.mu
}

// newProcs prepares the scratch root and builds ncserve into it. An
// empty work makes a temporary directory that close removes.
func newProcs(ctx context.Context, work string) (*procs, error) {
	p := &procs{work: work}
	if work == "" {
		dir, err := os.MkdirTemp("", "ncload-")
		if err != nil {
			return nil, err
		}
		p.work, p.ownsWork = dir, true
	} else {
		abs, err := filepath.Abs(work)
		if err != nil {
			return nil, err
		}
		p.work = abs
	}
	if err := os.MkdirAll(filepath.Join(p.work, "bin"), 0o755); err != nil {
		return nil, err
	}
	p.ncserve = filepath.Join(p.work, "bin", "ncserve")
	ctx, cancel := context.WithTimeout(ctx, buildTimeout)
	defer cancel()
	// ncload runs from inside the bench module, whose go.mod replaces
	// the netcoord module with the checkout around it: the server is
	// built from that source, never fetched.
	build := exec.CommandContext(ctx, "go", "build", "-o", p.ncserve, "netcoord/cmd/ncserve")
	if out, err := build.CombinedOutput(); err != nil {
		p.close()
		return nil, fmt.Errorf("building ncserve (run ncload from the bench/ directory): %v\n%s", err, out)
	}
	return p, nil
}

// tempDir makes a scratch directory that close removes.
func (p *procs) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(p.work, prefix+"-")
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.dirs = append(p.dirs, dir)
	p.mu.Unlock()
	return dir, nil
}

// start execs ncserve on a kernel-chosen loopback port and returns once
// it has printed the address it listens on. started is the moment of
// the exec, for callers that time recovery.
func (p *procs) start(name string, args ...string) (c *child, started time.Time, err error) {
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(p.ncserve, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, started, err
	}
	c = &child{name: name, cmd: cmd, exited: make(chan struct{})}
	started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, started, fmt.Errorf("%s: %w", name, err)
	}
	p.mu.Lock()
	p.children = append(p.children, c)
	p.mu.Unlock()

	lines := make(chan string)
	returned := make(chan struct{})
	defer close(returned)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-returned: // nobody reads any more; keep draining the pipe
			}
		}
		close(lines)
		// Wait only after stdout is drained, as os/exec requires.
		_ = cmd.Wait()
		p.mu.Lock()
		if !c.stopping && p.early == nil {
			p.early = fmt.Errorf("%s (pid %d) exited early: %v", name, cmd.Process.Pid, cmd.ProcessState)
		}
		p.mu.Unlock()
		close(c.exited)
	}()

	deadline := time.After(startTimeout)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				return nil, started, fmt.Errorf("%s exited before listening", name)
			}
			if c.banner == "" {
				c.banner = l
			}
			if _, addr, found := strings.Cut(l, "debug endpoints (pprof, expvar) on "); found {
				c.debug, _, _ = strings.Cut(addr, " ")
			}
			if _, addr, found := strings.Cut(l, "ncserve listening on "); found {
				c.url, _, _ = strings.Cut(addr, " ")
				return c, started, nil
			}
		case <-deadline:
			go p.stop(c)
			return nil, started, fmt.Errorf("%s did not listen within %v", name, startTimeout)
		}
	}
}

// stop asks a child to shut down gracefully and waits for it; a child
// that ignores the request for stopTimeout is killed.
func (p *procs) stop(c *child) {
	p.mu.Lock()
	already := c.stopping
	c.stopping = true
	p.mu.Unlock()
	if !already {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-c.exited:
	case <-time.After(stopTimeout):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// err reports a child that died while it was still needed.
func (p *procs) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.early
}

// close stops every child and removes every scratch directory.
func (p *procs) close() {
	p.mu.Lock()
	children := p.children
	dirs := p.dirs
	p.children, p.dirs = nil, nil
	p.mu.Unlock()
	for _, c := range children {
		p.stop(c)
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
	if p.ownsWork {
		_ = os.RemoveAll(p.work)
	}
}

// removeDir deletes one scratch directory before close would.
func (p *procs) removeDir(dir string) {
	_ = os.RemoveAll(dir)
	p.mu.Lock()
	for i, d := range p.dirs {
		if d == dir {
			p.dirs = append(p.dirs[:i], p.dirs[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// copyDir copies the regular files of src into the existing directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
