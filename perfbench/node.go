package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// productionFlags are the flags README.md recommends for production:
// the verdict cache on and ~1% sampled tracing under a 100/s budget.
// Metrics are always on in rbacd. Every node runs these and no others
// besides its addresses and replication role.
var productionFlags = []string{"-fastpath", "on", "-trace-sample", "0.01", "-trace-rate-limit", "100"}

// node is one running rbacd process.
type node struct {
	name                        string
	cmd                         *exec.Cmd
	httpAddr, wireAddr, dbgAddr string
	logPath                     string
	spawned                     time.Time
	done                        chan struct{} // closed once the process has been reaped
}

// live tracks every started rbacd so that every exit path, signals and
// the watchdog included, can stop them.
var live struct {
	sync.Mutex
	nodes map[*node]bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawn starts rbacd with the production flags plus extra. Its output
// goes to a log file in workdir, since a replica logs a line per
// applied epoch and nobody drains a pipe.
func spawn(bin, workdir, name string, extra ...string) (*node, error) {
	n := &node{name: name, done: make(chan struct{})}
	for _, p := range []*string{&n.httpAddr, &n.wireAddr, &n.dbgAddr} {
		addr, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("free port: %w", err)
		}
		*p = addr
	}
	n.logPath = filepath.Join(workdir, name+".log")
	logf, err := os.Create(n.logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", n.httpAddr, "-wire-addr", n.wireAddr, "-debug-addr", n.dbgAddr}, productionFlags...)
	n.cmd = exec.Command(bin, append(args, extra...)...)
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	// Should the load generator die without running its cleanup, the
	// kernel kills the node with it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	live.Lock()
	defer live.Unlock()
	if live.nodes == nil {
		logf.Close()
		return nil, errors.New("shutting down")
	}
	n.spawned = time.Now()
	if err := n.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.nodes[n] = true
	go func() {
		_ = n.cmd.Wait() // the exit status is reported through the log and readiness
		logf.Close()
		close(n.done)
	}()
	return n, nil
}

// pid is the node's process id.
func (n *node) pid() int { return n.cmd.Process.Pid }

// url builds an HTTP URL on the node's API listener.
func (n *node) url(path string) string { return "http://" + n.httpAddr + path }

// waitReady polls /readyz until it answers 200 and returns the time
// from spawn to that answer.
func (n *node) waitReady(cl *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := n.spawned.Add(timeout)
	for {
		resp, err := cl.Get(n.url("/readyz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(n.spawned), nil
			}
		}
		select {
		case <-n.done:
			return 0, fmt.Errorf("%s exited before ready: %s", n.name, n.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not ready after %v: %s", n.name, timeout, n.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the last lines of the node's log for error messages.
func (n *node) logTail() string {
	b, _ := os.ReadFile(n.logPath) // best effort: the message is diagnostic
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// stop asks the node to shut down, kills it if it has not exited within
// five seconds, and waits until it has been reaped.
func (n *node) stop() {
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-n.done:
	case <-time.After(5 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
	}
	live.Lock()
	delete(live.nodes, n)
	live.Unlock()
}

// killAll kills every live node, waits for each to be reaped and
// refuses further spawns.
func killAll() {
	live.Lock()
	nodes := live.nodes
	live.nodes = nil
	live.Unlock()
	for n := range nodes {
		_ = n.cmd.Process.Kill() // fails only if already exited
	}
	for n := range nodes {
		<-n.done
	}
}

// counters is one outside-in reading of a node.
type counters struct {
	prom     promSamples
	mem      memStats
	cpuS     float64
	rssKB    uint64
	pushEpch uint64 // leader push epoch (0 on a replica)
}

// read scrapes /metrics, the MemStats section of the heap profile page
// and /proc for one node.
func (n *node) read(cl *http.Client, leader bool) (counters, error) {
	var c counters
	body, err := getBody(cl, n.url("/metrics"))
	if err != nil {
		return c, err
	}
	if c.prom, err = parseProm(body); err != nil {
		return c, err
	}
	if body, err = getBody(cl, "http://"+n.dbgAddr+"/debug/pprof/heap?debug=1"); err != nil {
		return c, err
	}
	if c.mem, err = parseMemStats(body); err != nil {
		return c, err
	}
	if c.cpuS, err = procCPU(n.pid()); err != nil {
		return c, err
	}
	if c.rssKB, _, err = procMemKB(n.pid()); err != nil {
		return c, err
	}
	if leader {
		c.pushEpch, err = n.pushEpoch(cl)
	}
	return c, err
}

// pushEpoch reads a leader's push epoch from GET /v1/replication.
func (n *node) pushEpoch(cl *http.Client) (uint64, error) {
	body, err := getBody(cl, n.url("/v1/replication"))
	if err != nil {
		return 0, err
	}
	var r struct{ Epoch uint64 }
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		return 0, fmt.Errorf("replication status: %w", err)
	}
	return r.Epoch, nil
}

// getBody fetches a URL and returns its body; any status but 200 is an
// error.
func getBody(cl *http.Client, url string) (string, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return string(b), nil
}

// newHTTPClient returns a keep-alive client holding at most conns
// connections per host.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}
