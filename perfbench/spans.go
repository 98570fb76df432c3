package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName names a layer boundary the benchmark records.
type spanName uint8

// Spans around the calls the benchmark makes: transport calls against
// rbacd, and the in-process replay against activerbac.System.
const (
	spWireCheck spanName = iota
	spWireBatch
	spCacheCheck
	spHTTPCreate
	spHTTPActivate
	spHTTPDeactivate
	spHTTPDelete
	spHTTPReload
	spChurnScript
	spRevokeCycle
	spRevokeVisible
	spProcOpen
	spProcCheck
	spProcBatch
	spProcCreate
	spProcActivate
	spProcDeactivate
	spProcDelete
	spProcApply
	spProcAnalyze
	spProcExport
	spProcInstall
	spCodec
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"wire.check", "wire.check_batch", "client.check",
	"http.create", "http.activate", "http.deactivate", "http.delete", "http.reload",
	"script.churn", "script.revoke_cycle", "script.revoke_visible",
	"proc.open", "proc.check_tuple", "proc.check_batch", "proc.create_session",
	"proc.activate", "proc.deactivate", "proc.delete_session",
	"proc.apply_policy", "proc.analyze", "proc.export_snapshot", "proc.install_snapshot",
	"wire.codec",
}

// span is one recorded interval. Start and End are nanoseconds since
// the log's origin; Parent indexes the same log (-1 for a root); Req
// identifies the request (script, cycle or call) the span belongs to.
type span struct {
	Name       spanName
	Req        uint32
	Parent     int32
	Start, End int64
}

// spanLog keeps one goroutine's spans in memory. A nil log, or one
// switched off, records nothing, so untraced runs pay one branch.
type spanLog struct {
	origin time.Time
	on     bool
	caller uint32
	next   uint32
	spans  []span
}

func newSpanLog(origin time.Time, caller uint32) *spanLog {
	return &spanLog{origin: origin, on: true, caller: caller, spans: make([]span, 0, 1<<16)}
}

// start opens a span under parent (-1 opens a new request) and returns
// its index, or -1 when not recording.
func (l *spanLog) start(name spanName, parent int32) int32 {
	if l == nil || !l.on {
		return -1
	}
	var req uint32
	if parent >= 0 {
		req = l.spans[parent].Req
	} else {
		l.next++
		req = l.caller<<26 | l.next
	}
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(l.origin))})
	return int32(len(l.spans) - 1)
}

// end closes the span at i (a no-op for -1).
func (l *spanLog) end(i int32) {
	if i >= 0 {
		l.spans[i].End = int64(time.Since(l.origin))
	}
}

// selfTimes returns each span's duration minus the part of it covered
// by its children, grouped by span name, in nanoseconds.
func selfTimes(spans []span) [numSpanNames][]float64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out [numSpanNames][]float64
	for i, s := range spans {
		self := s.End - s.Start - covered(children[int32(i)], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		if curE > curS {
			total += curE - curS
		}
	}
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			flush()
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	flush()
	return total
}

// writeSpans writes every log as JSON lines: name, request id, start,
// end (ns since the run's origin) and parent as a global line index.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	base := 0
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			fmt.Fprintf(w, "{\"name\":%q,\"req\":%d,\"start\":%d,\"end\":%d,\"parent\":%d}\n",
				spanNames[s.Name], s.Req, s.Start, s.End, parent)
		}
		base += len(l.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
