package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"netcoord/bench/gen"
)

// requestTimeout bounds every request ncload sends.
const requestTimeout = 30 * time.Second

// conn is one keep-alive HTTP/1.1 connection used as a closed loop:
// a request is written, its response read to the end, and only then may
// the next one go out. It is ncload's whole client — no pool, no
// background goroutines — so the time it adds to a request is small and
// even.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	req  []byte
	body bytes.Buffer
}

// dial connects to a child's base URL (http://host:port).
func dial(url string) (*conn, error) {
	host := strings.TrimPrefix(url, "http://")
	c, err := net.DialTimeout("tcp", host, requestTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: host}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one request and returns the status and the whole body; the
// body is valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	resp, err := c.send(method, path, "", body)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// send writes one request and reads the response head.
func (c *conn) send(method, path, accept string, body []byte) (*http.Response, error) {
	r := c.req[:0]
	r = append(r, method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, c.host...)
	if accept != "" {
		r = append(r, "\r\nAccept: "...)
		r = append(r, accept...)
	}
	if body != nil {
		r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
	}
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	if _, err := c.c.Write(r); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp, nil
}

// getJSON fetches path on a fresh connection and decodes a 200 body.
func getJSON(url, path string, into any) error {
	status, body, err := getOnce(url, path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d: %s", url, path, status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("GET %s%s: %w", url, path, err)
	}
	return nil
}

// getOnce fetches path on a connection of its own.
func getOnce(url, path string) (int, []byte, error) {
	c, err := dial(url)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	status, body, err := c.do("GET", path, nil)
	return status, append([]byte(nil), body...), err
}

// nearestResponse is the body of POST /nearest.
type nearestResponse struct {
	Results []struct {
		ID  string  `json:"id"`
		RTT float64 `json:"estimated_rtt_ms"`
	} `json:"results"`
}

func (r *nearestResponse) neighbors() []gen.Neighbor {
	out := make([]gen.Neighbor, len(r.Results))
	for i, x := range r.Results {
		out[i] = gen.Neighbor{ID: x.ID, RTT: x.RTT}
	}
	return out
}

// batchResponse is the body of POST /nearest/batch.
type batchResponse struct {
	Results []nearestResponse `json:"results"`
}

// upsertResponse is the body of POST /upsert.
type upsertResponse struct {
	Applied  int    `json:"applied"`
	Seq      uint64 `json:"seq"`
	Degraded string `json:"persistence_degraded"`
}

// health is the part of GET /healthz ncload reads.
type health struct {
	Role       string `json:"role"`
	AppliedSeq uint64 `json:"applied_seq"`
}

// serverStats is the part of GET /stats ncload reads.
type serverStats struct {
	Seq      uint64 `json:"seq"`
	Registry struct {
		Entries int `json:"entries"`
	} `json:"registry"`
	ChangeStream struct {
		Overflows          uint64 `json:"overflows"`
		RejectedStaleEpoch uint64 `json:"rejected_stale_epoch"`
	} `json:"change_stream"`
	Follower *struct {
		RejectedStaleEpoch uint64 `json:"rejected_stale_epoch"`
	} `json:"follower"`
}

// waitHealthy polls /healthz until it answers 200 (and, for a follower,
// until it has applied wantSeq), a child dies, or the deadline passes.
// The poll is 1 ms apart: the wait is for another process's state, and
// /healthz is the interface that process offers for it.
func waitHealthy(p *procs, url string, wantSeq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		if err := p.err(); err != nil {
			return err
		}
		status, body, err := getOnce(url, "/healthz")
		if err == nil && status == http.StatusOK {
			var h health
			if json.Unmarshal(body, &h) == nil && (h.Role != "follower" || h.AppliedSeq >= wantSeq) {
				return nil
			}
		}
		last = fmt.Sprintf("status %d, body %s, err %v", status, bytes.TrimSpace(body), err)
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not healthy at seq %d within %v (last: %s)", url, wantSeq, timeout, last)
}

// watchEvent is one SSE payload of GET /watch, reduced to what the
// write-replicate workload checks.
type watchEvent struct {
	at       time.Time
	seq      uint64
	hasProbe bool
	err      error
}

// watch opens GET /watch on its own connection and forwards every
// snapshot and delta event until the stream ends; the returned stop
// closes the connection and waits for the reader to finish.
func watch(url, path string) (<-chan watchEvent, func(), error) {
	c, err := dial(url)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.send("GET", path, "text/event-stream", nil)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		c.close()
		return nil, nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	// The stream outlives any one request's deadline; its reader is
	// released by closing the connection.
	_ = c.c.SetDeadline(time.Time{})
	// Buffered so that a reader stalled for a few events never delays
	// the stamping of the next one; the prober drains it every cycle.
	events := make(chan watchEvent, 64)
	done, quit := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			ev := watchEvent{at: time.Now()}
			var d struct {
				Seq     uint64 `json:"seq"`
				Results []struct {
					ID string `json:"id"`
				} `json:"results"`
			}
			if err := json.Unmarshal(data, &d); err != nil {
				ev.err = fmt.Errorf("watch event: %w", err)
			}
			ev.seq = d.Seq
			for _, r := range d.Results {
				if r.ID == gen.ProbeID {
					ev.hasProbe = true
				}
			}
			select {
			case events <- ev:
			case <-quit:
				return
			}
		}
	}()
	stop := func() {
		close(quit)
		c.close()
		<-done
	}
	return events, stop, nil
}

// scrape is one reading of a Prometheus text page: series name with its
// label block, as printed, to value.
type scrape map[string]float64

// scrapeMetrics reads GET /metrics.
func scrapeMetrics(url string) (scrape, error) {
	status, body, err := getOnce(url, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, status)
	}
	out := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			continue
		}
		out[line[:at]] = v
	}
	return out, nil
}

// get returns the series whose name is name and whose label block
// contains every given label (written as printed: route="/nearest").
func (s scrape) get(name string, labels ...string) float64 {
next:
	for series, v := range s {
		n, block, _ := strings.Cut(series, "{")
		if n != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(block, l) {
				continue next
			}
		}
		return v
	}
	return 0
}

// memMallocs reads the cumulative heap allocation count from a child's
// expvar page.
func memMallocs(debugURL string) (float64, error) {
	var vars struct {
		Memstats struct {
			Mallocs float64 `json:"Mallocs"`
		} `json:"memstats"`
	}
	if err := getJSON(debugURL, "/debug/vars", &vars); err != nil {
		return 0, err
	}
	return vars.Memstats.Mallocs, nil
}

// cpuSeconds reads a process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	_, rest, ok := strings.Cut(string(data), ") ")
	if !ok {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	const clockTicksPerSecond = 100 // USER_HZ, fixed at 100 on Linux
	return (utime + stime) / clockTicksPerSecond, nil
}

// rssMB reads a process's resident set size from /proc.
func rssMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// stolenSeconds reads the time the hypervisor gave this machine's CPUs
// to someone else while they had work to do (the steal column of
// /proc/stat, summed over CPUs); 0 where the kernel does not report it.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}
