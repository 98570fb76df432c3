package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestReportableQuantile(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 0.99}, // rank 989: exactly ten beyond
		{999, 0.99, 0.98},
		{500, 0.99, 0.98},
		{100, 0.90, 0.90},
		{80, 0.99, 0.87},
		{40, 0.90, 0.75},
		{21, 0.99, 0.52},
		{20, 0.99, 0.5}, // nothing above the median keeps ten beyond
		{5, 0.50, 0.50},
		{100000, 0.50, 0.50},
	}
	for _, c := range cases {
		if got := reportableQ(c.n, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("reportableQ(%d, %g) = %g, want %g", c.n, c.q, got, c.want)
		}
		if c.q > 0.5 {
			if beyond := c.n - 1 - rank(c.n, reportableQ(c.n, c.q)); beyond < minTail && reportableQ(c.n, c.q) != 0.5 {
				t.Errorf("n=%d q=%g leaves %d beyond", c.n, c.q, beyond)
			}
		}
	}
}

func TestQuantileValues(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	if p := quantile(s, 0.99); p.Value != 990 || p.Q != 0.99 || p.N != 1000 {
		t.Errorf("p99 of 1..1000 = %+v, want 990", p)
	}
	if p := quantile(s, 0.5); p.Value != 500 {
		t.Errorf("p50 of 1..1000 = %+v, want 500", p)
	}
	if p := quantile(nil, 0.5); !math.IsNaN(p.Value) {
		t.Errorf("quantile of nothing = %v, want NaN", p.Value)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPhaseQuantile(t *testing.T) {
	var s samples
	for tenth := uint8(0); tenth < numTenths; tenth++ {
		for i := 1; i <= 1000; i++ {
			v := time.Duration(i) * time.Microsecond
			if tenth == 3 {
				v *= 50 // one disturbed tenth
			}
			s.add(v, tenth)
		}
	}
	p := phaseQuantile(s, 1e3, 0.99)
	if !p.Tenths || p.Value != 990 || p.N != 10000 {
		t.Errorf("p99 with one disturbed tenth = %+v, want 990 from the per-tenth median", p)
	}
	s.add(time.Second, outside) // outside any tenth: counted, not binned
	if p := phaseQuantile(s, 1e3, 0.5); !p.Tenths || p.Value != 500 {
		t.Errorf("p50 = %+v, want 500", p)
	}
	var short samples
	for i := 1; i <= 100; i++ {
		short.add(time.Duration(i)*time.Microsecond, uint8(i%numTenths))
	}
	if p := phaseQuantile(short, 1e3, 0.99); p.Tenths || p.Q != 0.9 || p.Value != 90 {
		t.Errorf("p99 of 100 samples = %+v, want the whole-phase p90", p)
	}
}

const promPage = `# HELP activerbac_decisions_total Decisions.
# TYPE activerbac_decisions_total counter
activerbac_decisions_total{event="req.checkAccess",verdict="allow"} 12
activerbac_decisions_total{event="req.addActiveRole.PC",verdict="deny"} 3
activerbac_decisions_totalx 100
activerbac_stage_seconds_sum{stage="cascade"} 1.5e-05
activerbac_rule_fired_total{rule="odd } \"name\" {x"} 7 1700000000000

activerbac_sessions 4
activerbac_lane_queue_max_depth{lane="global"} 2
activerbac_lane_queue_max_depth{lane="scope-0"} 9
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(promPage)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("activerbac_decisions_total"); got != 15 {
		t.Errorf("decisions sum = %v, want 15 (the _totalx series is another metric)", got)
	}
	if got := p.sum(`activerbac_stage_seconds_sum{stage="cascade"}`); got != 1.5e-05 {
		t.Errorf("cascade sum = %v", got)
	}
	if got := p.sum("activerbac_rule_fired_total"); got != 7 {
		t.Errorf("escaped label value: fired = %v, want 7", got)
	}
	if got := p.max("activerbac_lane_queue_max_depth"); got != 9 {
		t.Errorf("lane max = %v, want 9", got)
	}
	if got := p.sum("activerbac_sessions"); got != 4 {
		t.Errorf("sessions = %v", got)
	}
	for _, bad := range []string{"novalue\n", `m{a="b" 1` + "\n", "m 1 2 3\n", "m abc\n"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func memPage(numGC int, pauses map[int]uint64) string {
	ring := make([]string, 256)
	for i := range ring {
		ring[i] = "0"
	}
	for gc, ns := range pauses {
		ring[(gc+255)%256] = strconvU(ns)
	}
	return "heap profile: ...\n# runtime.MemStats\n# Alloc = 1\n# TotalAlloc = 2048\n# Mallocs = 77\n" +
		"# PauseNs = [" + strings.Join(ring, " ") + "]\n# PauseEnd = [1 2]\n# NumGC = " + strconvU(uint64(numGC)) + "\n"
}

func strconvU(v uint64) string {
	b, _ := json.Marshal(v) // a uint64 always marshals
	return string(b)
}

func TestParseMemStats(t *testing.T) {
	before, err := parseMemStats(memPage(255, map[int]uint64{255: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if before.Mallocs != 77 || before.TotalAlloc != 2048 || before.NumGC != 255 {
		t.Errorf("parsed %+v", before)
	}
	// GCs 256..258 wrap the ring: slots 255, 0 and 1.
	after, err := parseMemStats(memPage(258, map[int]uint64{255: 1000, 256: 10, 257: 20, 258: 30}))
	if err != nil {
		t.Fatal(err)
	}
	if ns, trunc := after.pauseSince(before); ns != 60 || trunc {
		t.Errorf("pauseSince = %d %v, want 60 false", ns, trunc)
	}
	far := after
	far.NumGC = before.NumGC + 300
	if _, trunc := far.pauseSince(before); !trunc {
		t.Error("300 GCs over a 256-entry ring not reported truncated")
	}
	if _, err := parseMemStats("# Mallocs = 1\n"); err == nil {
		t.Error("missing fields accepted")
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (rb acd) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 8 0 100 0 0"
	cpu, err := parseProcCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 3.25 {
		t.Errorf("cpu = %v, want 3.25 (325 ticks)", cpu)
	}
	status := "Name:\trbacd\nVmPeak:\t  900 kB\nVmHWM:\t   61440 kB\nVmRSS:\t   20480 kB\n"
	if v, err := parseProcStatusKB(status, "VmHWM"); err != nil || v != 61440 {
		t.Errorf("VmHWM = %v %v", v, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spChurnScript, Parent: -1, Start: 0, End: 100},
		{Name: spHTTPCreate, Parent: 0, Start: 10, End: 30},
		{Name: spWireCheck, Parent: 0, Start: 25, End: 50}, // overlaps the first child by 5
		{Name: spHTTPDelete, Parent: 0, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if got := self[spChurnScript]; len(got) != 1 || got[0] != 100-40-10 {
		t.Errorf("script self = %v, want 50", got)
	}
	if got := self[spHTTPDelete]; len(got) != 1 || got[0] != 30 {
		t.Errorf("leaf self = %v, want its duration", got)
	}
}

// TestGenerateDeterministic checks that one seed gives identical
// inputs and oracle, that another seed differs, and the oracle's shape.
func TestGenerateDeterministic(t *testing.T) {
	a, err := generate("session_churn", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate("session_churn", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	c, err := generate("session_churn", 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Churn, c.Churn) {
		t.Error("seeds 7 and 8 gave the same scripts")
	}
	refused, allowed, checks := 0, 0, 0
	for _, cyc := range a.Churn[0] {
		if !cyc.ActivateOK {
			refused++
		}
		for _, pc := range append(cyc.Batch[:], cyc.Checks[:]...) {
			checks++
			if pc.Want {
				allowed++
			}
			if a.Perms[pc.Perm] == a.Toggled {
				t.Fatal("a churn check reads the grant hot reloads toggle")
			}
		}
	}
	if share := float64(refused) / float64(len(a.Churn[0])); share < 0.05 || share > 0.15 {
		t.Errorf("refused activations %.3f, want about %.2f", share, foreignShare)
	}
	if allowed == 0 || allowed == checks {
		t.Errorf("churn checks all one verdict: %d of %d allowed", allowed, checks)
	}
	users := map[string]int{}
	for ci, cycles := range a.Churn {
		for _, cyc := range cycles {
			if prev, ok := users[cyc.User]; ok && prev != ci {
				t.Fatalf("user %s scripted for callers %d and %d", cyc.User, prev, ci)
			}
			users[cyc.User] = ci
		}
	}
}

func TestGenerateReads(t *testing.T) {
	in, err := generate("hot_reads", 3)
	if err != nil {
		t.Fatal(err)
	}
	granted := 0
	for c := range in.Hot {
		s := &in.Hot[c]
		denies := 0
		for _, i := range s.Seq {
			if !s.Tuples[i].Want {
				denies++
			}
		}
		if share := float64(denies) / float64(len(s.Seq)); math.Abs(share-denyShare) > 0.02 {
			t.Errorf("caller %d deny share %.3f, want %.2f", c, share, denyShare)
		}
		for _, tu := range s.Tuples {
			if tu.Want {
				granted++
			}
		}
	}
	if granted < 1500 || granted > 2500 {
		t.Errorf("%d granted tuples, want roughly 2k", granted)
	}
	if len(in.Revoke.Cycles) != tailCycles || in.Source == in.Alt {
		t.Errorf("tail probe %d cycles; alternate policy differs: %v", len(in.Revoke.Cycles), in.Source != in.Alt)
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestBenchmarkJSONNames checks that BENCHMARK.json names exactly the
// metrics the benchmark prints, with the same units.
func TestBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	res := &result{setups: []float64{1}, seconds: 1, peakRSSKB: 1024}
	res.window.check.add(1, 0)
	res.window.mut[0].add(1, 0)
	res.tail.revoke.add(1, 0)
	res.tail.reload.add(1, outside)
	res.before = []counters{{prom: promSamples{}}}
	res.after = []counters{{prom: promSamples{}}}
	var self [numSpanNames][]float64
	var gated []metric
	for _, m := range endToEnd(res) {
		if !ungated[m.Name] {
			gated = append(gated, m)
		}
	}
	for _, c := range []struct {
		name string
		want []struct{ Name, Unit string }
		got  []metric
	}{
		{"end_to_end", spec.EndToEnd, gated},
		{"per_layer", spec.PerLayer, perLayer(res, &replayResult{}, self)},
	} {
		var want, got []string
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		for _, m := range c.got {
			got = append(got, m.Name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: BENCHMARK.json has %v\nthe benchmark prints %v", c.name, want, got)
		}
	}
}
