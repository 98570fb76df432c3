// Command perfbench is the repository benchmark. It drives the real
// rbacd binary, built from the tree under test, with a closed-loop load
// of at most two callers over loopback wire and HTTP, checks every
// verdict against an oracle computed on internal/baseline before
// timing, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as one JSON line.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 8 --trace 0
//
// Workloads: hot_reads, session_churn, fleet_revoke. README.md in this
// directory lists every metric, its base and what it should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds a whole run; past it the watchdog stops every node
// and exits non-zero.
const runDeadline = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "hot_reads, session_churn or fleet_revoke")
		seed         = flag.Int64("seed", 1, "workload seed: the policy and every request script derive from it")
		seconds      = flag.Int("seconds", 10, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		rbacd        = flag.String("rbacd", ".bench_build/bin/rbacd", "rbacd binary built from the tree under test")
		workdir      = flag.String("workdir", ".bench_build/run", "directory for the policy file, node logs and spans")
	)
	flag.Parse()
	if *workloadName == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	live.nodes = map[*node]bool{}
	// Fewer load-generator collections: their pauses would land in the
	// latencies it times. The heap stays small (samples and scripts).
	debug.SetGCPercent(400)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		s := <-sig
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(3)
	}()
	watchdog := time.AfterFunc(runDeadline, func() {
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runDeadline)
		os.Exit(4)
	})

	out, err := run(*workloadName, *seed, *seconds, *trace == 1, *rbacd, *workdir)
	killAll()
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// environment describes the host every result was measured on.
func environment() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": model, "network": "loopback",
	}
}

// run generates the inputs, drives the workload and returns the result
// line.
func run(workloadName string, seed int64, seconds int, traced bool, bin, workdir string) (string, error) {
	if _, err := os.Stat(bin); err != nil {
		return "", fmt.Errorf("rbacd binary: %w (build it with perfbench/run.sh)", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	start := time.Now()
	in, err := generate(workloadName, seed)
	if err != nil {
		return "", err
	}
	r := &runner{
		in: in, bin: bin, workdir: workdir, traced: traced, origin: start, lastMark: start,
		ctl: newHTTPClient(4), load: newHTTPClient(numCallers),
	}
	defer r.stopNodes()
	res, err := r.run(seconds)
	if err != nil {
		return "", err
	}
	r.stopNodes()

	var ms []metric
	if traced {
		tl := newSpanLog(r.origin, numCallers+1)
		rp, err := replay(in, tl)
		if err != nil {
			return "", err
		}
		r.mark("in-process replay")
		res.other.attempted += rp.attempted
		res.other.failed += rp.failed
		logs := append(r.logs, tl)
		var self [numSpanNames][]float64
		nspans := 0
		for _, l := range logs {
			nspans += len(l.spans)
			st := selfTimes(l.spans)
			for i := range self {
				self[i] = append(self[i], st[i]...)
			}
		}
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", workloadName, seed))
		if err := writeSpans(path, logs); err != nil {
			return "", err
		}
		fmt.Printf("spans: %d written to %s\n", nspans, path)
		ms = perLayer(res, rp, self)
	} else {
		ms = endToEnd(res)
	}

	attempted := res.window.attempted + res.tail.attempted + res.other.attempted
	failed := res.window.failed + res.tail.failed + res.other.failed
	env, _ := json.Marshal(environment()) // a map of strings and ints always marshals
	fmt.Printf("env: %s\n", env)
	fmt.Printf("workload: %s seed %d, %d s window, traced %v\n", workloadName, seed, seconds, traced)
	fmt.Printf("phases: %s\n", strings.Join(r.phases, ", "))
	metrics := map[string]any{}
	for _, m := range ms {
		gate := ""
		if !traced && ungated[m.Name] {
			gate = " (printed, not gated: a per-layer metric in BENCHMARK.json)"
		}
		fmt.Printf("  %-38s %14.4f %-6s %s%s\n", m.Name, m.Value, m.Unit, m.Note, gate)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s has no value (%s)", m.Name, m.Note)
		}
		if gate == "" {
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	for _, st := range []*stats{&res.window, &res.tail, &res.other} {
		for _, n := range st.notes {
			fmt.Println("  failure:", n)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return "", err
	}
	if attempted == 0 {
		return "", errors.New("no operation attempted")
	}
	return string(line), nil
}
