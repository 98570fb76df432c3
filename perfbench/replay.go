package main

import (
	"bytes"
	"fmt"
	"time"

	"activerbac"
	"activerbac/internal/wire"
)

// Replay sizes: enough calls for stable medians, few enough that the
// replay stays a small part of a traced run.
const (
	replayReads   = 20000 // reads per reader script
	replayChurn   = 400   // login-to-logout scripts per churn caller
	replayRevokes = 100   // revocation cycles
	replayAdmin   = 8     // hot reloads, exports and installs each
	replayGates   = 3     // reload analysis gates (each compiles the whole policy)
	codecRounds   = 5
	codecIters    = 50000
)

// replayResult is what the in-process replay measured.
type replayResult struct {
	openS       float64
	applyMs     float64 // median ApplyPolicy of a one-grant change
	analyzeMs   float64 // median AnalyzePolicy, the hot-reload gate
	exportMs    float64 // median ExportSyncSnapshot
	installMs   float64 // median InstallSyncSnapshot onto a synced replica
	exportBytes float64 // median snapshot size
	codecNs     float64 // encode and decode of one CHECK and its verdict
	failed      int64   // calls whose outcome differed from the oracle
	attempted   int64
}

// rbacdOptions are the facade options rbacd builds from the production
// flags (cmd/rbacd run: metrics always on, default trace buffer and
// slow buffer, auto lanes).
func rbacdOptions() *activerbac.Options {
	return &activerbac.Options{
		Lanes:          activerbac.LanesAuto,
		Metrics:        true,
		TraceBuffer:    256,
		TraceSample:    0.01,
		TraceRateLimit: 100,
		SlowBuffer:     64,
		FastPath:       true,
	}
}

// replayer replays a workload's scripts against an in-process System,
// with a span around every facade call.
type replayer struct {
	in  *inputs
	sys *activerbac.System
	tl  *spanLog
	res *replayResult
}

func (p *replayer) expect(ok bool) {
	p.res.attempted++
	if !ok {
		p.res.failed++
	}
}

func (p *replayer) create(parent int32, user string) activerbac.SessionID {
	sp := p.tl.start(spProcCreate, parent)
	sid, err := p.sys.CreateSession(activerbac.UserID(user))
	p.tl.end(sp)
	p.expect(err == nil)
	return sid
}

func (p *replayer) activate(parent int32, user string, sid activerbac.SessionID, role string, want bool) {
	sp := p.tl.start(spProcActivate, parent)
	err := p.sys.AddActiveRole(activerbac.UserID(user), sid, activerbac.RoleID(role))
	p.tl.end(sp)
	p.expect((err == nil) == want)
}

func (p *replayer) deactivate(parent int32, user string, sid activerbac.SessionID, role string) {
	sp := p.tl.start(spProcDeactivate, parent)
	err := p.sys.DropActiveRole(activerbac.UserID(user), sid, activerbac.RoleID(role))
	p.tl.end(sp)
	p.expect(err == nil)
}

func (p *replayer) check(parent int32, sid activerbac.SessionID, pm int32, want bool) {
	q := p.in.Perms[pm]
	sp := p.tl.start(spProcCheck, parent)
	got := p.sys.CheckAccessTuple(string(sid), q.Op, q.Obj)
	p.tl.end(sp)
	p.expect(got == want)
}

func (p *replayer) prepopulate(plans []sessionPlan) []activerbac.SessionID {
	sids := make([]activerbac.SessionID, len(plans))
	for i, pl := range plans {
		sids[i] = p.create(-1, pl.User)
		p.activate(-1, pl.User, sids[i], pl.Role, true)
	}
	return sids
}

// reads replays a read script twice: once to fill the verdict cache as
// the warm-up does against rbacd, once recorded.
func (p *replayer) reads(s *readScript) {
	sids := p.prepopulate(s.Sessions)
	for pass := 0; pass < 2; pass++ {
		p.tl.on = pass == 1
		for i := 0; i < replayReads; i++ {
			c := s.Tuples[s.Seq[i%len(s.Seq)]]
			p.check(-1, sids[c.Slot], c.Perm, c.Want)
		}
	}
	p.tl.on = true
}

func (p *replayer) churn(cycles []churnCycle) {
	batch := make([]activerbac.BatchCheck, churnBatch)
	var verdicts []bool
	for i := 0; i < replayChurn; i++ {
		c := &cycles[i%len(cycles)]
		root := p.tl.start(spChurnScript, -1)
		sid := p.create(root, c.User)
		p.activate(root, c.User, sid, c.Role, c.ActivateOK)
		for j, pc := range c.Batch {
			q := p.in.Perms[pc.Perm]
			batch[j] = activerbac.BatchCheck{Session: string(sid), Operation: q.Op, Object: q.Obj}
		}
		sp := p.tl.start(spProcBatch, root)
		verdicts = p.sys.CheckAccessBatch(batch, verdicts[:0])
		p.tl.end(sp)
		ok := len(verdicts) == len(batch)
		for j := 0; ok && j < len(verdicts); j++ {
			ok = verdicts[j] == c.Batch[j].Want
		}
		p.expect(ok)
		for _, pc := range c.Checks {
			p.check(root, sid, pc.Perm, pc.Want)
		}
		if c.ActivateOK {
			p.deactivate(root, c.User, sid, c.Role)
		}
		sp = p.tl.start(spProcDelete, root)
		err := p.sys.DeleteSession(sid)
		p.tl.end(sp)
		p.expect(err == nil)
		p.tl.end(root)
	}
}

func (p *replayer) revokes(sids []activerbac.SessionID) {
	for i := 0; i < replayRevokes; i++ {
		c := p.in.Revoke.Cycles[i%len(p.in.Revoke.Cycles)]
		pl, sid := p.in.Revoke.Sessions[c.Slot], sids[c.Slot]
		root := p.tl.start(spRevokeCycle, -1)
		p.deactivate(root, pl.User, sid, pl.Role)
		p.check(root, sid, c.Probe, false)
		p.activate(root, pl.User, sid, pl.Role, true)
		p.check(root, sid, c.Probe, true)
		p.tl.end(root)
	}
}

// admin times the set-up and replication paths: hot reload, analysis,
// snapshot export and install onto a replica that already holds the
// policy (what a running replica pays per pushed epoch).
func (p *replayer) admin() error {
	var apply, analyze, export, install, size []float64
	for i := 0; i < replayAdmin; i++ {
		src := p.in.Alt
		if i%2 == 1 {
			src = p.in.Source
		}
		sp := p.tl.start(spProcApply, -1)
		t0 := time.Now()
		_, err := p.sys.ApplyPolicy(src)
		apply = append(apply, msSince(t0))
		p.tl.end(sp)
		p.expect(err == nil)

		if i < replayGates {
			// The gate rbacd runs on POST /v1/policy before applying:
			// the incoming policy compiled and analyzed on a scratch engine.
			sp = p.tl.start(spProcAnalyze, -1)
			t0 = time.Now()
			_, err = activerbac.AnalyzePolicy(src, time.Now())
			analyze = append(analyze, msSince(t0))
			p.tl.end(sp)
			p.expect(err == nil)
		}
	}
	replica, err := activerbac.Open("", rbacdOptions())
	if err != nil {
		return fmt.Errorf("replay replica: %w", err)
	}
	defer replica.Close()
	for i := 0; i <= replayAdmin; i++ {
		// Each round is one pushed epoch: a new session at the leader.
		p.create(-1, p.in.Spec.Users[i].Name)
		sp := p.tl.start(spProcExport, -1)
		t0 := time.Now()
		_, data, err := p.sys.ExportSyncSnapshot()
		d := msSince(t0)
		p.tl.end(sp)
		if err != nil {
			return fmt.Errorf("replay export: %w", err)
		}
		sp = p.tl.start(spProcInstall, -1)
		t0 = time.Now()
		err = replica.InstallSyncSnapshot(data)
		di := msSince(t0)
		p.tl.end(sp)
		p.expect(err == nil)
		if i == 0 {
			continue // the first install builds the replica's whole rule pool: set-up, not per epoch
		}
		export = append(export, d)
		install = append(install, di)
		size = append(size, float64(len(data)))
	}
	p.res.applyMs, p.res.analyzeMs = median(apply), median(analyze)
	p.res.exportMs, p.res.installMs, p.res.exportBytes = median(export), median(install), median(size)
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// codec times encoding and decoding one CHECK frame and its verdict
// frame with internal/wire, as client and server each do per request.
func (p *replayer) codec() error {
	q := p.in.Perms[0]
	var req, resp, payload []byte
	var rd bytes.Reader
	dec := wire.NewDecoder(&rd, 0)
	var rounds []float64
	for r := 0; r < codecRounds; r++ {
		sp := p.tl.start(spCodec, -1)
		t0 := time.Now()
		for i := 0; i < codecIters; i++ {
			payload = wire.AppendCheck(payload[:0], "s12345", q.Op, q.Obj)
			req = wire.AppendFrame(req[:0], wire.OpCheck, uint32(i), payload)
			rd.Reset(req)
			f, err := dec.Next()
			if err != nil {
				return err
			}
			if _, _, _, err := wire.ConsumeCheck(f.Payload); err != nil {
				return err
			}
			resp = wire.AppendFrame(resp[:0], wire.OpCheck, uint32(i), []byte{1})
			rd.Reset(resp)
			if f, err = dec.Next(); err != nil || len(f.Payload) != 1 || f.Payload[0] != 1 {
				return fmt.Errorf("codec round trip: %v", err)
			}
		}
		rounds = append(rounds, float64(time.Since(t0))/codecIters)
		p.tl.end(sp)
	}
	p.res.codecNs = median(rounds)
	return nil
}

// replay opens an in-process System with rbacd's options on the same
// policy and replays the workload's scripts on it.
func replay(in *inputs, tl *spanLog) (*replayResult, error) {
	p := &replayer{in: in, tl: tl, res: &replayResult{}}
	sp := tl.start(spProcOpen, -1)
	t0 := time.Now()
	sys, err := activerbac.Open(in.Source, rbacdOptions())
	p.res.openS = time.Since(t0).Seconds()
	tl.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay open: %w", err)
	}
	defer sys.Close()
	p.sys = sys
	revokeSIDs := p.prepopulate(in.Revoke.Sessions)
	switch in.Workload {
	case "hot_reads":
		for c := range in.Hot {
			p.reads(&in.Hot[c])
		}
	case "session_churn":
		for c := range in.Churn {
			p.churn(in.Churn[c])
		}
	case "fleet_revoke":
		p.reads(&in.Read)
	}
	p.revokes(revokeSIDs)
	if err := p.admin(); err != nil {
		return nil, err
	}
	if err := p.codec(); err != nil {
		return nil, err
	}
	return p.res, nil
}
