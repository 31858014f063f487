package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
	"time"
)

func TestRunRejectsBadListenAddr(t *testing.T) {
	if err := run([]string{"-listen", "999.999.0.1:not-a-port"}, io.Discard); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func TestRunWithDeadline(t *testing.T) {
	// A single node with no peers: starts, reports, exits on deadline.
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-interval", "50ms",
			"-report", "100ms",
			"-duration", "400ms",
		}, io.Discard)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("node did not exit on -duration")
	}
}

func TestTwoNodesOverCLI(t *testing.T) {
	// Start a seed node on an ephemeral port, then a second node that
	// joins it at the address the seed prints; both exit on their
	// deadlines without error.
	out, w := io.Pipe()
	seedDone := make(chan error, 1)
	go func() {
		err := run([]string{
			"-listen", "127.0.0.1:0",
			"-interval", "50ms",
			"-report", "1s",
			"-duration", "2s",
		}, w)
		_ = w.Close() // ends the reader below; a pipe's Close cannot fail
		seedDone <- err
	}()
	addr := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(out)
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "ncnode listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
	}()
	seed, ok := <-addr
	if !ok {
		t.Fatalf("seed node printed no listening line: %v", <-seedDone)
	}
	joinDone := make(chan error, 1)
	go func() {
		joinDone <- run([]string{
			"-listen", "127.0.0.1:0",
			"-join", seed,
			"-interval", "50ms",
			"-report", "1s",
			"-duration", "1500ms",
		}, io.Discard)
	}()
	for i, ch := range []chan error{seedDone, joinDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("node %d did not exit", i)
		}
	}
}
