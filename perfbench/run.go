package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"activerbac/client"
	"activerbac/internal/wire"
)

// Run-shape constants.
const (
	setupRepeats   = 3                      // set-ups per run; setup_s is their median
	fleetSetups    = 2                      // fleet set-ups take ~8 s each (the replica's first sync runs the analyze gate and a full ApplyPolicy)
	warmup         = time.Second            // load before the measured window, not recorded
	readyTimeout   = 120 * time.Second      // spawn to /readyz 200
	visibleTimeout = 10 * time.Second       // revocation (or re-grant) not visible by then: failed
	fenceGrace     = 100 * time.Millisecond // allowed staleness once the reader's node has applied the epoch
	fenceProbe     = 5 * time.Millisecond   // start checking the convergence fence this long after the ack
	probeBusy      = 2 * time.Millisecond   // probe back to back this long, then pace
	probePace      = 100 * time.Microsecond // pause between later probes
	maxFailNotes   = 5
	traceSlices    = 40              // traced runs alternate untraced and traced slices of the window
	tailSpan       = 5 * time.Second // revocation probe beside the first caller, after the window
	tailReloads    = 2               // hot reloads after the window; each compiles the policy for seconds
)

// mutation kinds, indexing stats.mut.
const (
	mutCreate = iota
	mutActivate
	mutDeactivate
	mutDelete
	numMut
)

// window is a timed interval: the measured window, or the tail.
type window struct {
	start, end time.Time
	sliced     bool // traced runs: alternate untraced and traced slices
}

// tracedAt reports whether spans are recorded at t: always, unless the
// window alternates slices and t falls in an untraced one.
func (w *window) tracedAt(t time.Time) bool {
	if !w.sliced {
		return true
	}
	k := int64(t.Sub(w.start)) * traceSlices / int64(w.end.Sub(w.start))
	return k%2 == 1
}

// tenth returns the tenth of w in which t falls, or outside.
func (w *window) tenth(t time.Time) uint8 {
	if w == nil || t.Before(w.start) || t.After(w.end) {
		return outside
	}
	b := int64(t.Sub(w.start)) * numTenths / int64(w.end.Sub(w.start))
	return uint8(min(b, numTenths-1))
}

// stats collects one caller's outcomes in one phase.
type stats struct {
	w         *window // nil outside a timed phase
	check     samples // CHECK / CHECK_BATCH / client-cache check
	mut       [numMut]samples
	revoke    samples // leader ack to reader-side deny
	reload    samples // POST /v1/policy
	ops       int64   // successful operations completed inside the window
	attempted int64
	failed    int64
	bins      [numTenths]int64 // window ops by completion tenth
	sliceOps  [2]int64         // window ops in untraced / traced slices
	notes     []string
}

// op records one operation's outcome, completed at done, and returns
// ok; callers describe a failure with note.
func (s *stats) op(done time.Time, traced, ok bool) bool {
	s.attempted++
	if !ok {
		s.failed++
		return false
	}
	if s.w == nil || done.After(s.w.end) {
		return true
	}
	s.ops++
	if b := s.w.tenth(done); b != outside {
		s.bins[b]++
	}
	if traced {
		s.sliceOps[1]++
	} else {
		s.sliceOps[0]++
	}
	return true
}

// note keeps the first few failure descriptions for the report.
func (s *stats) note(format string, args ...any) {
	if len(s.notes) < maxFailNotes {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
}

// merge adds o into s.
func (s *stats) merge(o *stats) {
	s.check.merge(o.check)
	for k := range s.mut {
		s.mut[k].merge(o.mut[k])
	}
	s.revoke.merge(o.revoke)
	s.reload.merge(o.reload)
	s.ops += o.ops
	s.attempted += o.attempted
	s.failed += o.failed
	for i := range s.bins {
		s.bins[i] += o.bins[i]
	}
	s.sliceOps[0] += o.sliceOps[0]
	s.sliceOps[1] += o.sliceOps[1]
	for _, n := range o.notes {
		if len(s.notes) < maxFailNotes {
			s.notes = append(s.notes, n)
		}
	}
}

// runner drives one workload against rbacd.
type runner struct {
	in      *inputs
	bin     string
	workdir string
	traced  bool
	origin  time.Time

	ctl  *http.Client // readiness, scrapes, fences: outside the load's connection budget
	load *http.Client // the load's HTTP transport, at most 2 connections

	policyPath string
	leader     *node
	replica    *node
	nodes      []*node
	setups     []float64

	revokerSIDs []string            // rbacd session ids of in.Revoke.Sessions
	reloads     int                 // hot reloads sent so far (odd: the alternate policy is live)
	clientStats func() client.Stats // fleet reader cache counters, read around the window
	phases      []string            // wall time of each phase, for the report
	lastMark    time.Time
	logs        []*spanLog
}

// startNodes spawns the workload's nodes and waits until each is ready,
// returning spawn-to-ready time of the whole set.
func (r *runner) startNodes() (time.Duration, error) {
	var err error
	if r.leader, err = spawn(r.bin, r.workdir, "leader", "-policy", r.policyPath); err != nil {
		return 0, err
	}
	r.nodes = []*node{r.leader}
	if _, err = r.leader.waitReady(r.ctl, readyTimeout); err != nil {
		return 0, err
	}
	if r.in.Workload != "fleet_revoke" {
		return time.Since(r.leader.spawned), nil
	}
	r.replica, err = spawn(r.bin, r.workdir, "replica",
		"-mode", "replica", "-leader-addr", r.leader.wireAddr, "-replica-name", "replica-1")
	if err != nil {
		return 0, err
	}
	r.nodes = append(r.nodes, r.replica)
	if _, err = r.replica.waitReady(r.ctl, readyTimeout); err != nil {
		return 0, err
	}
	return time.Since(r.leader.spawned), nil
}

func (r *runner) stopNodes() {
	for i := len(r.nodes) - 1; i >= 0; i-- {
		r.nodes[i].stop()
	}
	r.nodes, r.leader, r.replica = nil, nil, nil
}

// setup measures set-up several times (once when traced), keeping the
// last set of nodes running.
func (r *runner) setup() error {
	r.policyPath = filepath.Join(r.workdir, "policy.acp")
	if err := os.WriteFile(r.policyPath, []byte(r.in.Source), 0o644); err != nil {
		return err
	}
	n := setupRepeats
	if r.in.Workload == "fleet_revoke" {
		n = fleetSetups
	}
	if r.traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			r.stopNodes()
		}
		d, err := r.startNodes()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d.Seconds())
	}
	return nil
}

// --- HTTP calls -----------------------------------------------------

// post sends a JSON (or text) body and returns the status and body.
func (r *runner) post(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, r.leader.url(path), bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.load.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func jsonBody(kv ...string) []byte {
	b := []byte{'{'}
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, kv[i])
		b = append(b, ':')
		b = strconv.AppendQuote(b, kv[i+1])
	}
	return append(b, '}')
}

// createSession opens a session for user and returns its id.
func (r *runner) createSession(st *stats, tl *spanLog, parent int32, user string) (string, bool) {
	sp := tl.start(spHTTPCreate, parent)
	t0 := time.Now()
	code, body, err := r.post(http.MethodPost, "/v1/sessions", jsonBody("user", user))
	t1 := time.Now()
	tl.end(sp)
	var resp struct{ Session string }
	ok := err == nil && code == http.StatusOK && json.Unmarshal(body, &resp) == nil && resp.Session != ""
	st.mut[mutCreate].add(t1.Sub(t0), st.w.tenth(t1))
	if !st.op(t1, tl.recording(), ok) {
		st.note("create session for %s: %d %v %s", user, code, err, body)
	}
	return resp.Session, ok
}

// mutate sends an activate/deactivate/delete and compares its outcome
// with the oracle's: wantOK false expects a 403 refusal.
func (r *runner) mutate(st *stats, tl *spanLog, parent int32, kind int, user, sid, role string, wantOK bool) bool {
	var (
		method, path string
		body         []byte
		name         spanName
	)
	switch kind {
	case mutActivate:
		method, path, name = http.MethodPost, "/v1/activate", spHTTPActivate
		body = jsonBody("user", user, "session", sid, "role", role)
	case mutDeactivate:
		method, path, name = http.MethodPost, "/v1/deactivate", spHTTPDeactivate
		body = jsonBody("user", user, "session", sid, "role", role)
	default:
		method, path, name = http.MethodDelete, "/v1/sessions", spHTTPDelete
		body = jsonBody("session", sid)
	}
	sp := tl.start(name, parent)
	t0 := time.Now()
	code, resp, err := r.post(method, path, body)
	t1 := time.Now()
	tl.end(sp)
	st.mut[kind].add(t1.Sub(t0), st.w.tenth(t1))
	want := http.StatusOK
	if !wantOK {
		want = http.StatusForbidden
	}
	ok := err == nil && code == want
	if !st.op(t1, tl.recording(), ok) {
		st.note("%s %s: got %d %v %s, want %d", path, body, code, err, resp, want)
	}
	return ok
}

// reload hot-reloads the alternate policy and the original in turn.
func (r *runner) reload(st *stats, tl *spanLog, parent int32) {
	src := r.in.Alt
	if r.reloads%2 == 1 {
		src = r.in.Source
	}
	r.reloads++
	sp := tl.start(spHTTPReload, parent)
	t0 := time.Now()
	code, resp, err := r.post(http.MethodPost, "/v1/policy", []byte(src))
	t1 := time.Now()
	tl.end(sp)
	st.reload.add(t1.Sub(t0), st.w.tenth(t1))
	if !st.op(t1, tl.recording(), err == nil && code == http.StatusOK) {
		st.note("reload: %d %v %s", code, err, resp)
	}
}

// recording reports whether spans are being kept.
func (l *spanLog) recording() bool { return l != nil && l.on }

// prepopulate creates and activates the planned sessions, returning
// their rbacd ids. It is not part of any measured window.
func (r *runner) prepopulate(st *stats, tl *spanLog, plans []sessionPlan) ([]string, error) {
	sids := make([]string, len(plans))
	for i, p := range plans {
		sid, ok := r.createSession(st, tl, -1, p.User)
		if !ok || !r.mutate(st, tl, -1, mutActivate, p.User, sid, p.Role, true) {
			return nil, fmt.Errorf("pre-populate %s/%s: %v", p.User, p.Role, st.notes)
		}
		sids[i] = sid
	}
	return sids, nil
}

// teardown deactivates and deletes pre-populated sessions.
func (r *runner) teardown(st *stats, tl *spanLog, plans []sessionPlan, sids []string) {
	for i, p := range plans {
		r.mutate(st, tl, -1, mutDeactivate, p.User, sids[i], p.Role, true)
		r.mutate(st, tl, -1, mutDelete, p.User, sids[i], "", true)
	}
}

// --- closed-loop callers ---------------------------------------------

// loop runs step back to back until end, as one closed-loop caller.
func loop(end time.Time, w *window, tl *spanLog, step func()) {
	for time.Now().Before(end) {
		if tl != nil && w != nil {
			tl.on = w.tracedAt(time.Now())
		}
		step()
	}
	if tl != nil {
		tl.on = true
	}
}

// reader replays a read script: single wire CHECKs (hot_reads) or
// client-cache checks (fleet_revoke reader).
type reader struct {
	s    *readScript
	sids []string
	pos  int
	wc   *wire.Client  // hot_reads
	cc   *client.Cache // fleet_revoke
}

func (r *runner) readStep(rd *reader, st *stats, tl *spanLog) {
	c := rd.s.Tuples[rd.s.Seq[rd.pos%len(rd.s.Seq)]]
	rd.pos++
	sid, p := rd.sids[c.Slot], r.in.Perms[c.Perm]
	name := spWireCheck
	if rd.cc != nil {
		name = spCacheCheck
	}
	sp := tl.start(name, -1)
	t0 := time.Now()
	var got bool
	var err error
	if rd.cc != nil {
		got, err = rd.cc.Check(sid, p.Op, p.Obj)
	} else {
		got, err = rd.wc.Check(sid, p.Op, p.Obj)
	}
	t1 := time.Now()
	tl.end(sp)
	st.check.add(t1.Sub(t0), st.w.tenth(t1))
	if !st.op(t1, tl.recording(), err == nil && got == c.Want) {
		st.note("check %s %s %s: got %v %v, want %v", sid, p.Op, p.Obj, got, err, c.Want)
	}
}

// churner replays login-to-logout scripts.
type churner struct {
	cycles []churnCycle
	pos    int
	wc     *wire.Client
	batch  []wire.CheckRequest
}

func (r *runner) churnStep(ch *churner, st *stats, tl *spanLog) {
	c := &ch.cycles[ch.pos%len(ch.cycles)]
	ch.pos++
	root := tl.start(spChurnScript, -1)
	defer tl.end(root)
	sid, ok := r.createSession(st, tl, root, c.User)
	if !ok {
		return
	}
	r.mutate(st, tl, root, mutActivate, c.User, sid, c.Role, c.ActivateOK)

	ch.batch = ch.batch[:0]
	for _, pc := range c.Batch {
		p := r.in.Perms[pc.Perm]
		ch.batch = append(ch.batch, wire.CheckRequest{Session: sid, Operation: p.Op, Object: p.Obj})
	}
	sp := tl.start(spWireBatch, root)
	t0 := time.Now()
	got, err := ch.wc.CheckMany(ch.batch)
	t1 := time.Now()
	tl.end(sp)
	st.check.add(t1.Sub(t0), st.w.tenth(t1))
	ok = err == nil && len(got) == len(c.Batch)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i] == c.Batch[i].Want
	}
	if !st.op(t1, tl.recording(), ok) {
		st.note("batch for %s/%s: got %v %v", c.User, c.Role, got, err)
	}

	for _, pc := range c.Checks {
		p := r.in.Perms[pc.Perm]
		sp := tl.start(spWireCheck, root)
		t0 := time.Now()
		got, err := ch.wc.Check(sid, p.Op, p.Obj)
		t1 := time.Now()
		tl.end(sp)
		st.check.add(t1.Sub(t0), st.w.tenth(t1))
		if !st.op(t1, tl.recording(), err == nil && got == pc.Want) {
			st.note("check %s %s %s: got %v %v, want %v", sid, p.Op, p.Obj, got, err, pc.Want)
		}
	}
	if c.ActivateOK {
		r.mutate(st, tl, root, mutDeactivate, c.User, sid, c.Role, true)
	}
	r.mutate(st, tl, root, mutDelete, c.User, sid, "", true)
}

// revoker runs revocation cycles: revoke at the leader, probe through
// a client cache at the reader-side node until it denies, re-grant,
// probe until it allows.
type revoker struct {
	pos    int
	probe  *client.Cache
	fenced func(target uint64) bool // has the reader-side node applied target?
}

func (r *runner) revokeStep(rv *revoker, st *stats, tl *spanLog) {
	c := r.in.Revoke.Cycles[rv.pos%len(r.in.Revoke.Cycles)]
	rv.pos++
	pl, sid, p := r.in.Revoke.Sessions[c.Slot], r.revokerSIDs[c.Slot], r.in.Perms[c.Probe]
	root := tl.start(spRevokeCycle, -1)
	defer tl.end(root)
	if !r.mutate(st, tl, root, mutDeactivate, pl.User, sid, pl.Role, true) {
		return
	}
	ack := time.Now()
	sp := tl.start(spRevokeVisible, root)
	d, err := r.waitVisible(rv, sid, p, false, ack)
	tl.end(sp)
	if err == nil {
		st.revoke.add(d, st.w.tenth(time.Now()))
	}
	if !st.op(time.Now(), tl.recording(), err == nil) {
		st.note("revoke %s/%s: %v", pl.User, pl.Role, err)
	}
	if !r.mutate(st, tl, root, mutActivate, pl.User, sid, pl.Role, true) {
		return
	}
	if _, err := r.waitVisible(rv, sid, p, true, time.Now()); err != nil {
		st.op(time.Now(), tl.recording(), false)
		st.note("re-grant %s/%s: %v", pl.User, pl.Role, err)
	}
}

// waitVisible probes until the reader side answers want and returns
// the time since ack. Once the reader's node has applied the leader's
// epoch at the ack (the convergence fence), the old answer may persist
// for at most fenceGrace; longer is a failure, as is any probe error.
func (r *runner) waitVisible(rv *revoker, sid string, p perm, want bool, ack time.Time) (time.Duration, error) {
	var target uint64
	var fencedAt time.Time
	for {
		got, err := rv.probe.Check(sid, p.Op, p.Obj)
		if err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
		el := time.Since(ack)
		if got == want {
			return el, nil
		}
		if el > fenceProbe && target == 0 {
			if target, err = r.leader.pushEpoch(r.ctl); err != nil {
				return 0, fmt.Errorf("fence: %w", err)
			}
		}
		if target != 0 && fencedAt.IsZero() && rv.fenced(target) {
			fencedAt = time.Now()
		}
		if !fencedAt.IsZero() && time.Since(fencedAt) > fenceGrace {
			return 0, fmt.Errorf("answer %v persists %v after the reader's node applied epoch %d", got, time.Since(fencedAt), target)
		}
		if el > visibleTimeout {
			return 0, fmt.Errorf("answer %v persists after %v", got, el)
		}
		if el > probeBusy {
			time.Sleep(probePace)
		} else {
			runtime.Gosched() // let the connection's reader deliver a pending push
		}
	}
}

// --- phases ------------------------------------------------------------

// result is everything a run measured.
type result struct {
	window       stats // measured window, all callers
	tail         stats // after the window: revocation probe and hot reloads
	other        stats // pre-population, warm-up and teardown
	seconds      float64
	setups       []float64
	before       []counters // per node, around the window
	after        []counters
	loadCPU      [2]float64 // load generator CPU seconds around the window
	peakRSSKB    uint64
	clientBefore client.Stats // fleet reader cache around the window
	clientAfter  client.Stats
	tailClient   client.Stats // tail probe cache over the tail
	tailSeconds  float64
}

// runCallers runs one closed-loop goroutine per step function until
// end and merges their stats into into.
func runCallers(end time.Time, w *window, logs []*spanLog, into *stats, steps ...func(*stats, *spanLog)) {
	per := make([]stats, len(steps))
	var wg sync.WaitGroup
	for i, step := range steps {
		wg.Add(1)
		go func(i int, step func(*stats, *spanLog)) {
			defer wg.Done()
			per[i].w = w
			var tl *spanLog
			if logs != nil {
				tl = logs[i]
			}
			loop(end, w, tl, func() { step(&per[i], tl) })
		}(i, step)
	}
	wg.Wait()
	for i := range per {
		into.merge(&per[i])
	}
}

// measure runs warm-up then the window, reading counters around the
// window only.
func (r *runner) measure(res *result, seconds int, steps ...func(*stats, *spanLog)) error {
	var logs []*spanLog
	if r.traced {
		logs = r.logs[:len(steps)]
	}
	runCallers(time.Now().Add(warmup), nil, logs, &res.other, steps...)
	runtime.GC() // start the window with the load generator's own heap clean
	var err error
	if res.before, res.loadCPU[0], err = r.readAll(); err != nil {
		return err
	}
	if r.clientStats != nil {
		res.clientBefore = r.clientStats()
	}
	w := &window{start: time.Now(), sliced: r.traced}
	w.end = w.start.Add(time.Duration(seconds) * time.Second)
	res.window.w = w
	runCallers(w.end, w, logs, &res.window, steps...)
	res.seconds = w.end.Sub(w.start).Seconds()
	if r.clientStats != nil {
		res.clientAfter = r.clientStats()
	}
	res.after, res.loadCPU[1], err = r.readAll()
	return err
}

// readAll reads every node's counters and the load generator's CPU.
func (r *runner) readAll() ([]counters, float64, error) {
	out := make([]counters, len(r.nodes))
	for i, n := range r.nodes {
		c, err := n.read(r.ctl, n == r.leader)
		if err != nil {
			return nil, 0, fmt.Errorf("read %s: %w", n.name, err)
		}
		out[i] = c
	}
	cpu, err := procCPU(os.Getpid())
	return out, cpu, err
}

// mark closes a phase of the run, noting its wall time.
func (r *runner) mark(phase string) {
	now := time.Now()
	r.phases = append(r.phases, fmt.Sprintf("%s %.1fs", phase, now.Sub(r.lastMark).Seconds()))
	r.lastMark = now
}

// run executes the workload end to end.
func (r *runner) run(seconds int) (*result, error) {
	res := &result{}
	r.mark("generate")
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.mark("set-up")
	res.setups = r.setups
	var prep *spanLog
	if r.traced {
		for i := 0; i < numCallers; i++ {
			r.logs = append(r.logs, newSpanLog(r.origin, uint32(i)))
		}
		prep = newSpanLog(r.origin, numCallers)
		r.logs = append(r.logs, prep)
	}
	var err error
	if r.revokerSIDs, err = r.prepopulate(&res.other, prep, r.in.Revoke.Sessions); err != nil {
		return nil, err
	}
	switch r.in.Workload {
	case "hot_reads":
		err = r.runHot(res, seconds, prep)
	case "session_churn":
		err = r.runChurn(res, seconds)
	case "fleet_revoke":
		err = r.runFleet(res, seconds, prep)
	}
	if err != nil {
		return nil, err
	}
	r.mark("load")
	if r.traced {
		r.teardown(&res.other, prep, r.in.Revoke.Sessions, r.revokerSIDs)
	}
	for _, n := range r.nodes {
		_, hwm, err := procMemKB(n.pid())
		if err != nil {
			return nil, err
		}
		res.peakRSSKB = max(res.peakRSSKB, hwm)
	}
	return res, nil
}

// tail runs after the window. On workloads without a fleet, the
// revocation probe runs against the leader for tailSpan beside the
// workload's first caller: the source of the revocation (and for
// hot_reads the mutation) metrics, measured under the workload's load
// because on an idle node these sub-millisecond latencies swung by
// 30-40% between runs. Every workload then sends the hot reloads.
func (r *runner) tail(res *result, caller func(*stats, *spanLog)) error {
	var tl *spanLog
	if r.traced {
		tl = r.logs[numCallers]
	}
	if caller != nil {
		cc, err := client.New(r.leader.wireAddr, nil)
		if err != nil {
			return err
		}
		defer cc.Close()
		rv := &revoker{probe: cc, fenced: func(target uint64) bool { return cc.Epoch() >= target }}
		var logs []*spanLog
		if r.traced {
			logs = []*spanLog{r.logs[0], tl}
		}
		runtime.GC()
		w := &window{start: time.Now()}
		w.end = w.start.Add(tailSpan)
		res.tail.w = w
		runCallers(w.end, w, logs, &res.tail, caller,
			func(st *stats, tl *spanLog) { r.revokeStep(rv, st, tl) })
		res.tailSeconds = time.Since(w.start).Seconds()
		res.tailClient = cc.Stats()
	}
	for i := 0; i < tailReloads; i++ {
		r.reload(&res.tail, tl, -1)
	}
	return nil
}

func (r *runner) runHot(res *result, seconds int, prep *spanLog) error {
	var steps []func(*stats, *spanLog)
	var conns []*wire.Client
	defer closeAll(&conns)
	for c := 0; c < numCallers; c++ {
		sids, err := r.prepopulate(&res.other, prep, r.in.Hot[c].Sessions)
		if err != nil {
			return err
		}
		wc, err := wire.Dial(r.leader.wireAddr, nil)
		if err != nil {
			return err
		}
		conns = append(conns, wc)
		rd := &reader{s: &r.in.Hot[c], sids: sids, wc: wc}
		steps = append(steps, func(st *stats, tl *spanLog) { r.readStep(rd, st, tl) })
	}
	if err := r.measure(res, seconds, steps...); err != nil {
		return err
	}
	conns[1].Close() // the tail's probe connection takes the second caller's place
	return r.tail(res, steps[0])
}

func (r *runner) runChurn(res *result, seconds int) error {
	var steps []func(*stats, *spanLog)
	var conns []*wire.Client
	defer closeAll(&conns)
	for c := 0; c < numCallers; c++ {
		wc, err := wire.Dial(r.leader.wireAddr, nil)
		if err != nil {
			return err
		}
		conns = append(conns, wc)
		ch := &churner{cycles: r.in.Churn[c], wc: wc}
		steps = append(steps, func(st *stats, tl *spanLog) { r.churnStep(ch, st, tl) })
	}
	if err := r.measure(res, seconds, steps...); err != nil {
		return err
	}
	conns[1].Close() // the tail's probe connection takes the second caller's place
	return r.tail(res, steps[0])
}

// closeAll closes every client; closing one twice is harmless.
func closeAll(conns *[]*wire.Client) {
	for _, c := range *conns {
		c.Close()
	}
}

func (r *runner) runFleet(res *result, seconds int, prep *spanLog) error {
	sids, err := r.prepopulate(&res.other, prep, r.in.Read.Sessions)
	if err != nil {
		return err
	}
	// Pre-population ends once the replica has applied it.
	target, err := r.leader.pushEpoch(r.ctl)
	if err != nil {
		return err
	}
	if err := r.waitReplica(target); err != nil {
		return err
	}
	rc, err := client.New(r.replica.wireAddr, nil)
	if err != nil {
		return err
	}
	defer rc.Close()
	pc, err := client.New(r.replica.wireAddr, nil)
	if err != nil {
		return err
	}
	defer pc.Close()
	rd := &reader{s: &r.in.Read, sids: sids, cc: rc}
	rv := &revoker{probe: pc, fenced: func(target uint64) bool {
		applied, err := pc.Client().PolicyVersion()
		return err == nil && applied >= target
	}}
	r.clientStats = rc.Stats
	err = r.measure(res, seconds,
		func(st *stats, tl *spanLog) { r.readStep(rd, st, tl) },
		func(st *stats, tl *spanLog) { r.revokeStep(rv, st, tl) })
	if err != nil {
		return err
	}
	return r.tail(res, nil)
}

// waitReplica waits until the replica has applied the leader's epoch.
func (r *runner) waitReplica(target uint64) error {
	wc, err := wire.Dial(r.replica.wireAddr, nil)
	if err != nil {
		return err
	}
	defer wc.Close()
	deadline := time.Now().Add(readyTimeout)
	for {
		applied, err := wc.PolicyVersion()
		if err == nil && applied >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("replica did not catch up with pre-population")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
