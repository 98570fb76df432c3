package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"activerbac/internal/baseline"
	"activerbac/internal/clock"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/workload"
)

// Input sizes. The policy is the paper's enterprise XYZ shape scaled to
// 128 roles in 8 department branches, so rule generation at set-up
// takes seconds, not tens of seconds.
const (
	numRoles     = 128
	numUsers     = 512
	numBranches  = 8
	permsPerRole = 4
	numCallers   = 2

	hotSessionsPerCaller = 48   // pre-populated sessions each hot_reads caller reads through
	hotGrantedPerCaller  = 1024 // granted tuples per caller: ~2k in all, far below the 262,144-entry verdict cache
	fleetGranted         = 2048 // granted tuples the fleet reader draws from
	denyShare            = 0.10 // share of reads that are denials (never cached)
	zipfS                = 1.1  // Zipf exponent of the read skew
	readSeqLen           = 1 << 16
	churnCycles          = 2048 // login-to-logout scripts per caller (replayed cyclically)
	foreignShare         = 0.10 // share of activations aimed at a role the user is not authorized for
	churnBatch           = 16   // tuples in the churn CHECK_BATCH
	churnChecks          = 8    // single CHECKs per churn script
	tailSessions         = 8    // sessions the revocation tail probe cycles over
	tailCycles           = 300  // revocation cycles scripted for the tail probe (replayed cyclically)
	fleetRevokeCycles    = 4096 // revocation cycles scripted for the fleet revoker (replayed cyclically)
	tailReloadEvery      = 20   // tail probe: a hot reload after every 20th cycle (2 reloads; each regenerates rules for seconds)
	fleetReloads         = 2    // fleet_revoke: hot reloads after the window (each takes seconds, so none inside it)
)

// perm is one (operation, object) pair of the policy.
type perm struct{ Op, Obj string }

// sessionPlan is one pre-populated session: created for User, with Role
// activated.
type sessionPlan struct{ User, Role string }

// check is one tuple a reader sends: a session (by its slot in the
// caller's pre-populated sessions), a permission and the verdict the
// oracle expects.
type check struct {
	Slot int32
	Perm int32
	Want bool
}

// readScript is a reader's inputs: the sessions it holds, the tuples it
// reads and the order it reads them in (indexes into Tuples, replayed
// cyclically).
type readScript struct {
	Sessions []sessionPlan
	Tuples   []check
	Seq      []int32
}

// pcheck is a permission checked inside a churn script's session.
type pcheck struct {
	Perm int32
	Want bool
}

// churnCycle is one login-to-logout script: create a session for User,
// activate Role (ActivateOK says whether the oracle grants it), one
// CHECK_BATCH, single CHECKs, then deactivate (when activated) and
// delete.
type churnCycle struct {
	User, Role string
	ActivateOK bool
	Batch      [churnBatch]pcheck
	Checks     [churnChecks]pcheck
}

// revokeCycle revokes the role of one pre-populated session, waits
// until the reader side denies Probe, then re-activates it and waits
// until the reader side allows it again.
type revokeCycle struct {
	Slot  int32
	Probe int32
}

// revokeScript is the revoker's inputs.
type revokeScript struct {
	Sessions []sessionPlan
	Cycles   []revokeCycle
}

// inputs is everything a run sends to rbacd, with the expected
// outcomes, generated from the workload seed before any timing.
type inputs struct {
	Workload string
	Seed     int64
	Spec     *policy.Spec
	Source   string // the .acp file rbacd loads
	Alt      string // the same policy minus the Toggled grant
	Toggled  perm
	Perms    []perm

	Hot   [numCallers]readScript   // hot_reads
	Churn [numCallers][]churnCycle // session_churn
	Read  readScript               // fleet_revoke reader (at the replica)
	// Revoke is the fleet revoker (fleet_revoke) or the tail probe
	// (hot_reads, session_churn).
	Revoke revokeScript
}

// generator carries the shared state of one generation.
type generator struct {
	rng       *rand.Rand
	spec      *policy.Spec
	perms     []perm
	permIdx   map[perm]int32
	toggled   int32
	closure   map[string][]string // role -> itself and every junior
	rolePerms map[string][]int32  // role -> perms granted through its closure
	base      *baseline.Engine
}

// generate builds a workload's inputs from the seed and checks every
// expected outcome by replaying each caller's script on the baseline
// enforcer. Callers use disjoint users and no role has an activation
// bound, so no expected outcome depends on how callers interleave.
func generate(workloadName string, seed int64) (*inputs, error) {
	spec := workload.MustEnterprise(workload.EnterpriseConfig{
		Roles:        numRoles,
		Shape:        workload.XYZShape,
		Branch:       numBranches,
		SSDFraction:  0.5,
		DSDFraction:  1,
		Users:        numUsers,
		PermsPerRole: permsPerRole,
		Seed:         seed,
	})
	g := &generator{rng: rand.New(rand.NewSource(seed)), spec: spec, permIdx: map[perm]int32{}}
	for _, p := range spec.Permissions {
		k := perm{p.Operation, p.Object}
		if _, ok := g.permIdx[k]; !ok {
			g.permIdx[k] = int32(len(g.perms))
			g.perms = append(g.perms, k)
		}
	}
	juniors := spec.Juniors()
	g.closure = map[string][]string{}
	g.rolePerms = map[string][]int32{}
	for _, r := range spec.Roles {
		var roles []string
		for j := range policy.JuniorClosure(juniors, r) {
			roles = append(roles, j)
		}
		sort.Strings(roles)
		g.closure[r] = roles
	}
	granted := map[string]map[int32]bool{}
	for _, p := range spec.Permissions {
		if granted[p.Role] == nil {
			granted[p.Role] = map[int32]bool{}
		}
		granted[p.Role][g.permIdx[perm{p.Operation, p.Object}]] = true
	}
	for _, r := range spec.Roles {
		var ps []int32
		for _, j := range g.closure[r] {
			for p := range granted[j] {
				ps = append(ps, p)
			}
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
		g.rolePerms[r] = ps
	}

	// The toggled grant is one permission of a user-held role; the
	// alternate policy drops it. No script reads it, so hot reloads
	// never change an expected verdict.
	tp := spec.Permissions[g.rng.Intn(len(spec.Permissions))]
	g.toggled = g.permIdx[perm{tp.Operation, tp.Object}]
	alt := *spec
	alt.Permissions = nil
	for _, p := range spec.Permissions {
		if (perm{p.Operation, p.Object}) != g.perms[g.toggled] {
			alt.Permissions = append(alt.Permissions, p)
		}
	}
	in := &inputs{
		Workload: workloadName, Seed: seed, Spec: spec,
		Source: policy.Format(spec), Alt: policy.Format(&alt),
		Toggled: g.perms[g.toggled], Perms: g.perms,
	}

	users := make([][]policy.User, numCallers)
	for i, u := range spec.Users {
		users[i%numCallers] = append(users[i%numCallers], u)
	}
	var err error
	switch workloadName {
	case "hot_reads":
		for c := 0; c < numCallers; c++ {
			if in.Hot[c], err = g.readScript(users[c][:hotSessionsPerCaller], hotGrantedPerCaller); err != nil {
				return nil, err
			}
		}
		in.Revoke, err = g.revokeScript(users[1][len(users[1])-tailSessions:], tailCycles)
	case "session_churn":
		for c := 0; c < numCallers; c++ {
			if in.Churn[c], err = g.churnScript(users[c]); err != nil {
				return nil, err
			}
		}
		in.Revoke, err = g.revokeScript(users[1][len(users[1])-tailSessions:], tailCycles)
	case "fleet_revoke":
		if in.Read, err = g.readScript(users[0], fleetGranted); err != nil {
			return nil, err
		}
		in.Revoke, err = g.revokeScript(users[1], fleetRevokeCycles)
	default:
		return nil, fmt.Errorf("unknown workload %q (want hot_reads, session_churn or fleet_revoke)", workloadName)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// oracle returns the baseline enforcer the scripts replay on. One
// engine serves every caller of a workload: callers touch disjoint
// users' sessions, so replaying one caller after another gives the
// outcomes of any interleaving.
func (g *generator) oracle() (*baseline.Engine, error) {
	if g.base == nil {
		var err error
		if g.base, err = baseline.New(clock.NewSim(time.Date(2025, 1, 6, 12, 0, 0, 0, time.UTC)), g.spec); err != nil {
			return nil, err
		}
	}
	return g.base, nil
}

func (g *generator) permission(i int32) rbac.Permission {
	return rbac.Permission{Operation: g.perms[i].Op, Object: g.perms[i].Obj}
}

// prepopulate replays session creation and activation on the oracle.
func (g *generator) prepopulate(o *baseline.Engine, users []policy.User) ([]sessionPlan, []rbac.SessionID, error) {
	plans := make([]sessionPlan, len(users))
	sids := make([]rbac.SessionID, len(users))
	for i, u := range users {
		plans[i] = sessionPlan{User: u.Name, Role: u.Roles[0]}
		sid, err := o.CreateSession(rbac.UserID(u.Name))
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: create session for %s: %w", u.Name, err)
		}
		if err := o.AddActiveRole(rbac.UserID(u.Name), sid, rbac.RoleID(u.Roles[0])); err != nil {
			return nil, nil, fmt.Errorf("oracle: activate %s for %s: %w", u.Roles[0], u.Name, err)
		}
		sids[i] = sid
	}
	return plans, sids, nil
}

// readScript builds a reader over one session per user: up to
// nGranted granted tuples drawn Zipf-skewed, plus denySeq share of
// uniformly drawn denials.
func (g *generator) readScript(users []policy.User, nGranted int) (readScript, error) {
	o, err := g.oracle()
	if err != nil {
		return readScript{}, err
	}
	plans, sids, err := g.prepopulate(o, users)
	if err != nil {
		return readScript{}, err
	}
	var allow, deny []check
	for slot, sid := range sids {
		for p := range g.perms {
			if int32(p) == g.toggled {
				continue
			}
			c := check{Slot: int32(slot), Perm: int32(p), Want: o.CheckAccess(sid, g.permission(int32(p)))}
			if c.Want {
				allow = append(allow, c)
			} else {
				deny = append(deny, c)
			}
		}
	}
	g.rng.Shuffle(len(allow), func(i, j int) { allow[i], allow[j] = allow[j], allow[i] })
	if len(allow) > nGranted {
		allow = allow[:nGranted]
	}
	nDeny := int(float64(len(allow)) * denyShare / (1 - denyShare))
	g.rng.Shuffle(len(deny), func(i, j int) { deny[i], deny[j] = deny[j], deny[i] })
	if len(allow) < 2 || len(deny) < nDeny {
		return readScript{}, fmt.Errorf("read script: %d granted and %d denied candidates", len(allow), len(deny))
	}
	s := readScript{Sessions: plans, Tuples: append(allow, deny[:nDeny]...)}
	zipf := rand.NewZipf(g.rng, zipfS, 1, uint64(len(allow)-1))
	s.Seq = make([]int32, readSeqLen)
	for i := range s.Seq {
		if g.rng.Float64() < denyShare {
			s.Seq[i] = int32(len(allow) + g.rng.Intn(nDeny))
		} else {
			s.Seq[i] = int32(zipf.Uint64())
		}
	}
	return s, nil
}

// pickChecks fills dst with permissions for a session holding role
// (none when role is ""): three quarters from the role's grants, the
// rest uniform, with the oracle's verdicts.
func (g *generator) pickChecks(o *baseline.Engine, sid rbac.SessionID, role string, dst []pcheck) {
	grants := g.rolePerms[role]
	for i := range dst {
		var p int32
		if role != "" && len(grants) > 0 && g.rng.Intn(4) != 0 {
			p = grants[g.rng.Intn(len(grants))]
		} else {
			p = int32(g.rng.Intn(len(g.perms)))
		}
		if p == g.toggled {
			p = (p + 1) % int32(len(g.perms))
		}
		dst[i] = pcheck{Perm: p, Want: o.CheckAccess(sid, g.permission(p))}
	}
}

// churnScript builds one caller's login-to-logout scripts over its
// users, replaying each on the oracle.
func (g *generator) churnScript(users []policy.User) ([]churnCycle, error) {
	o, err := g.oracle()
	if err != nil {
		return nil, err
	}
	cycles := make([]churnCycle, churnCycles)
	for i := range cycles {
		u := users[i%len(users)]
		auth := g.closure[u.Roles[0]]
		role := auth[g.rng.Intn(len(auth))]
		if g.rng.Float64() < foreignShare {
			for inAuth(auth, role) {
				role = g.spec.Roles[g.rng.Intn(len(g.spec.Roles))]
			}
		}
		c := churnCycle{User: u.Name, Role: role}
		sid, err := o.CreateSession(rbac.UserID(u.Name))
		if err != nil {
			return nil, fmt.Errorf("oracle: churn create: %w", err)
		}
		c.ActivateOK = o.AddActiveRole(rbac.UserID(u.Name), sid, rbac.RoleID(role)) == nil
		held := ""
		if c.ActivateOK {
			held = role
		}
		g.pickChecks(o, sid, held, c.Batch[:])
		g.pickChecks(o, sid, held, c.Checks[:])
		if c.ActivateOK {
			if err := o.DropActiveRole(rbac.UserID(u.Name), sid, rbac.RoleID(role)); err != nil {
				return nil, fmt.Errorf("oracle: churn deactivate: %w", err)
			}
		}
		if err := o.DeleteSession(sid); err != nil {
			return nil, fmt.Errorf("oracle: churn delete: %w", err)
		}
		cycles[i] = c
	}
	return cycles, nil
}

func inAuth(auth []string, role string) bool {
	for _, r := range auth {
		if r == role {
			return true
		}
	}
	return false
}

// revokeScript builds n revocation cycles over one session per user.
// The oracle confirms each probe is allowed while the role is active
// and denied once it is revoked.
func (g *generator) revokeScript(users []policy.User, n int) (revokeScript, error) {
	o, err := g.oracle()
	if err != nil {
		return revokeScript{}, err
	}
	plans, sids, err := g.prepopulate(o, users)
	if err != nil {
		return revokeScript{}, err
	}
	s := revokeScript{Sessions: plans, Cycles: make([]revokeCycle, n)}
	for i := range s.Cycles {
		slot := int32(g.rng.Intn(len(plans)))
		pl, sid := plans[slot], sids[slot]
		grants := g.rolePerms[pl.Role]
		probe := grants[g.rng.Intn(len(grants))]
		if probe == g.toggled {
			probe = grants[(indexOf(grants, probe)+1)%len(grants)]
		}
		p := g.permission(probe)
		if !o.CheckAccess(sid, p) {
			return revokeScript{}, fmt.Errorf("oracle: probe %v denied before revocation", p)
		}
		if err := o.DropActiveRole(rbac.UserID(pl.User), sid, rbac.RoleID(pl.Role)); err != nil {
			return revokeScript{}, fmt.Errorf("oracle: revoke: %w", err)
		}
		if o.CheckAccess(sid, p) {
			return revokeScript{}, fmt.Errorf("oracle: probe %v allowed after revocation", p)
		}
		if err := o.AddActiveRole(rbac.UserID(pl.User), sid, rbac.RoleID(pl.Role)); err != nil {
			return revokeScript{}, fmt.Errorf("oracle: re-activate: %w", err)
		}
		s.Cycles[i] = revokeCycle{Slot: slot, Probe: probe}
	}
	return s, nil
}

func indexOf(s []int32, v int32) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
