package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// promSamples is one scrape of a Prometheus text page: series (metric
// name plus its label block exactly as exposed) to value.
type promSamples map[string]float64

// parseProm parses the Prometheus text exposition format. Comment and
// blank lines are skipped; a trailing timestamp is ignored. Label
// values may contain spaces, braces and escaped quotes.
func parseProm(text string) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("prom line %d: %w", ln, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("prom line %d: want value [timestamp], got %q", ln, rest)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom line %d: %w", ln, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// splitSeries splits a sample line into its series (name and label
// block) and the remainder holding the value.
func splitSeries(line string) (series, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexAny(line, " \t")
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", "", fmt.Errorf("no value in %q", line)
		}
		return line[:space], line[space:], nil
	}
	inQuote := false
	for i := brace + 1; i < len(line); i++ {
		switch c := line[i]; {
		case inQuote && c == '\\':
			i++ // skip the escaped byte
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return line[:i+1], line[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label block in %q", line)
}

// sum adds every series of the metric name, across all label sets.
func (p promSamples) sum(name string) float64 {
	var total float64
	for series, v := range p {
		if series == name || (strings.HasPrefix(series, name) && strings.HasPrefix(series[len(name):], "{")) {
			total += v
		}
	}
	return total
}

// max returns the largest value among the metric name's series.
func (p promSamples) max(name string) float64 {
	var best float64
	for series, v := range p {
		if (series == name || (strings.HasPrefix(series, name) && strings.HasPrefix(series[len(name):], "{"))) && v > best {
			best = v
		}
	}
	return best
}

// memStats is the part of runtime.MemStats the benchmark reads from
// the "# runtime.MemStats" section of /debug/pprof/heap?debug=1.
// PauseTotalNs is not printed there, so pauses are summed from the
// 256-entry PauseNs ring by GC number.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint32
	PauseNs    [256]uint64
}

// parseMemStats reads the MemStats comment lines of a heap profile
// page in debug=1 form.
func parseMemStats(text string) (memStats, error) {
	var m memStats
	seen := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var err error
		switch key {
		case "Mallocs":
			m.Mallocs, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "TotalAlloc":
			m.TotalAlloc, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "NumGC":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 32)
			m.NumGC = uint32(n)
			seen++
		case "PauseNs":
			fields := strings.Fields(strings.Trim(val, "[]"))
			if len(fields) != len(m.PauseNs) {
				return m, fmt.Errorf("memstats: PauseNs has %d entries, want %d", len(fields), len(m.PauseNs))
			}
			for i, f := range fields {
				if m.PauseNs[i], err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
			}
			seen++
		}
		if err != nil {
			return m, fmt.Errorf("memstats %s: %w", key, err)
		}
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if seen != 4 {
		return m, fmt.Errorf("memstats: found %d of Mallocs, TotalAlloc, NumGC, PauseNs", seen)
	}
	return m, nil
}

// pauseSince sums the pauses of the GCs that ran after before, read
// from the PauseNs ring of m. A window with more GCs than the ring
// holds sums the newest 256 and reports truncated.
func (m memStats) pauseSince(before memStats) (ns uint64, truncated bool) {
	n := m.NumGC - before.NumGC
	if n > uint32(len(m.PauseNs)) {
		n, truncated = uint32(len(m.PauseNs)), true
	}
	for i := uint32(0); i < n; i++ {
		gc := m.NumGC - i // GC numbers are 1-based; GC k sits at (k+255)%256
		ns += m.PauseNs[(gc+uint32(len(m.PauseNs))-1)%uint32(len(m.PauseNs))]
	}
	return ns, truncated
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseProcCPU returns utime+stime in seconds from a /proc/<pid>/stat
// line. The command name may contain spaces and parentheses, so fields
// are counted after the last ')'.
func parseProcCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// After the command: state(3) ... utime(14) stime(15); f[0] is field 3.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// parseProcStatusKB returns a "Key:   N kB" field of /proc/<pid>/status.
func parseProcStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: %q", key, rest)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s", key)
}

// procCPU reads a process's accumulated CPU seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcCPU(string(b))
}

// procMemKB reads VmRSS and VmHWM (peak RSS) of a process in kB.
func procMemKB(pid int) (rss, hwm uint64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	if rss, err = parseProcStatusKB(string(b), "VmRSS"); err != nil {
		return 0, 0, err
	}
	hwm, err = parseProcStatusKB(string(b), "VmHWM")
	return rss, hwm, err
}
