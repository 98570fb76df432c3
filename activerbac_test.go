package activerbac_test

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"activerbac"
	"activerbac/internal/store"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

const xyzPolicy = `
policy "enterprise-xyz"
role PM
role PC
role AM
role AC
role Clerk
hierarchy PM > PC > Clerk
hierarchy AM > AC > Clerk
ssd purchase-approval 2: PC, AC
permission PC: write purchase-order.dat
permission Clerk: read lobby.txt
user bob: PC
user alice: PM
user carol: AC
cardinality PM 1
`

func openXYZ(t *testing.T) *activerbac.System {
	t.Helper()
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := openXYZ(t)
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	if !sys.CheckAccess(sid, activerbac.Permission{Operation: "write", Object: "purchase-order.dat"}) {
		t.Fatal("write denied")
	}
	if !sys.CheckAccess(sid, activerbac.Permission{Operation: "read", Object: "lobby.txt"}) {
		t.Fatal("inherited read denied")
	}
	if sys.CheckAccess(sid, activerbac.Permission{Operation: "approve", Object: "purchase-order.dat"}) {
		t.Fatal("approve allowed")
	}
	roles, err := sys.SessionRoles(sid)
	if err != nil || len(roles) != 1 || roles[0] != "PC" {
		t.Fatalf("SessionRoles = %v, %v", roles, err)
	}
	if err := sys.DropActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeleteSession(sid); err != nil {
		t.Fatal(err)
	}
	if errs := sys.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

func TestDenialErrorsClassify(t *testing.T) {
	sys := openXYZ(t)
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	err = sys.AddActiveRole("bob", sid, "AM")
	if err == nil {
		t.Fatal("unauthorized activation allowed")
	}
	if !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	var de *activerbac.DenialError
	if !errors.As(err, &de) || de.Reason == "" || !strings.Contains(de.Error(), "denied") {
		t.Fatalf("DenialError = %#v", err)
	}
	// SSD through the assignment rule.
	if err := sys.AssignUser("carol", "PC"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("SSD assignment: %v", err)
	}
	// Unknown user session.
	if _, err := sys.CreateSession("ghost"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("ghost session: %v", err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := activerbac.Open("syntactically wrong", nil); err == nil {
		t.Fatal("bad syntax accepted")
	}
	if _, err := activerbac.Open("role A\nrole A", nil); err == nil {
		t.Fatal("inconsistent policy accepted")
	}
	if _, err := activerbac.OpenFile("/does/not/exist.acp", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCheckPolicy(t *testing.T) {
	issues, err := activerbac.CheckPolicy("role A\nrole A")
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || !strings.Contains(issues[0], "error") {
		t.Fatalf("issues = %v", issues)
	}
	if issues, err := activerbac.CheckPolicy("role A"); err != nil || len(issues) != 0 {
		t.Fatalf("clean policy: %v %v", issues, err)
	}
	if _, err := activerbac.CheckPolicy("nonsense statement"); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

func TestApplyPolicyRegenerates(t *testing.T) {
	sys := openXYZ(t)
	rep, err := sys.ApplyPolicy(strings.Replace(xyzPolicy, "cardinality PM 1", "cardinality PM 3", 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Touched() != 1 || len(rep.RolesRegenerated) != 1 || rep.RolesRegenerated[0] != "PM" {
		t.Fatalf("report = %+v", rep)
	}
	if sys.PolicySource() == xyzPolicy {
		t.Fatal("PolicySource not updated")
	}
	if _, err := sys.ApplyPolicy("role A\nrole A"); err == nil {
		t.Fatal("bad policy accepted by ApplyPolicy")
	}
}

func TestRulesIntrospection(t *testing.T) {
	sys := openXYZ(t)
	rules := sys.Rules()
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	names := make(map[string]bool, len(rules))
	for _, r := range rules {
		names[r.Name] = true
	}
	for _, want := range []string{"AAR2.PC", "CA1", "ADM.assignUser", "CC1.PM"} {
		if !names[want] {
			t.Errorf("missing rule %q", want)
		}
	}
	st := sys.Stats()
	if st.Rules != len(rules) || st.Roles != 5 || st.Users != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	if errs := sys.VerifyRules(); len(errs) != 0 {
		t.Fatalf("VerifyRules: %v", errs)
	}
}

func TestReviewHelpers(t *testing.T) {
	sys := openXYZ(t)
	ar, err := sys.AssignedRoles("alice")
	if err != nil || len(ar) != 1 || ar[0] != "PM" {
		t.Fatalf("AssignedRoles = %v, %v", ar, err)
	}
	auth, err := sys.AuthorizedRoles("alice")
	if err != nil || len(auth) != 3 {
		t.Fatalf("AuthorizedRoles = %v, %v", auth, err)
	}
	if err := sys.AddUser("newbie"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssignUser("newbie", "Clerk"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeassignUser("newbie", "Clerk"); err != nil {
		t.Fatal(err)
	}
}

func TestActiveSecurityThroughFacade(t *testing.T) {
	src := xyzPolicy + "threshold intrusions 3 in 5m: lock-user\n"
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sid, _ := sys.CreateSession("bob")
	for i := 0; i < 3; i++ {
		sys.CheckAccess(sid, activerbac.Permission{Operation: "steal", Object: "secrets"})
	}
	if !sys.UserLocked("bob") {
		t.Fatal("user not locked after threshold")
	}
	if len(sys.Alerts()) != 1 {
		t.Fatalf("Alerts = %v", sys.Alerts())
	}
	if err := sys.UnlockUser("bob"); err != nil {
		t.Fatal(err)
	}
	if sys.UserLocked("bob") {
		t.Fatal("unlock failed")
	}
}

func TestEnableDisableThroughFacade(t *testing.T) {
	sys := openXYZ(t)
	if !sys.RoleEnabled("PC") {
		t.Fatal("PC should start enabled")
	}
	if err := sys.DisableRole("PC"); err != nil {
		t.Fatal(err)
	}
	if sys.RoleEnabled("PC") {
		t.Fatal("PC still enabled")
	}
	sid, _ := sys.CreateSession("bob")
	if err := sys.AddActiveRole("bob", sid, "PC"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("activation of disabled role: %v", err)
	}
	if err := sys.EnableRole("PC"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
}

func TestPurposeAccessThroughFacade(t *testing.T) {
	src := `
policy "clinic"
role Doctor
user dora: Doctor
permission Doctor: read patient.dat
purpose treatment
bind Doctor read patient.dat for treatment
consent-required patient.dat
`
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sid, _ := sys.CreateSession("dora")
	if err := sys.AddActiveRole("dora", sid, "Doctor"); err != nil {
		t.Fatal(err)
	}
	req := activerbac.CheckRequest{Session: string(sid), Operation: "read", Object: "patient.dat", Purpose: "treatment"}
	if sys.Check(req).Allowed {
		t.Fatal("allowed without consent")
	}
	if err := sys.GrantConsent("patient.dat", "treatment"); err != nil {
		t.Fatal(err)
	}
	if !sys.Check(req).Allowed {
		t.Fatal("denied with consent")
	}
	if err := sys.RevokeConsent("patient.dat", "treatment"); err != nil {
		t.Fatal(err)
	}
	if sys.Check(req).Allowed {
		t.Fatal("allowed after revocation")
	}
}

func TestExternalEvents(t *testing.T) {
	sys := openXYZ(t)
	if err := sys.RegisterExternal("sensor.location"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RaiseExternal("sensor.location", activerbac.Params{"room": "ICU"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RaiseExternal("sensor.unknown", nil); err == nil {
		t.Fatal("unknown external event accepted")
	}
}

func TestExplainAccess(t *testing.T) {
	sys := openXYZ(t)
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	ex := sys.ExplainAccess(sid, activerbac.Permission{Operation: "write", Object: "purchase-order.dat"})
	if !ex.Allowed || ex.Reason != "" {
		t.Fatalf("allowed explanation = %+v", ex)
	}
	if len(ex.Votes) != 1 || ex.Votes[0].Rule != "CA1" || !ex.Votes[0].Allow {
		t.Fatalf("votes = %+v", ex.Votes)
	}
	ex = sys.ExplainAccess(sid, activerbac.Permission{Operation: "approve", Object: "purchase-order.dat"})
	if ex.Allowed || ex.Reason != "Permission Denied" {
		t.Fatalf("denied explanation = %+v", ex)
	}
	if len(ex.Votes) != 1 || ex.Votes[0].Allow {
		t.Fatalf("votes = %+v", ex.Votes)
	}
	// A voteless decision explains itself too.
	ex = sys.ExplainAccess("ghost-session", activerbac.Permission{Operation: "x", Object: "y"})
	if ex.Allowed || ex.Reason == "" {
		t.Fatalf("ghost explanation = %+v", ex)
	}
}

func TestContextThroughFacade(t *testing.T) {
	src := `
policy "pervasive"
role WardNurse
user nina: WardNurse
context WardNurse requires location = ward
`
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sid, err := sys.CreateSession("nina")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("nina", sid, "WardNurse"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("activation outside context: %v", err)
	}
	if err := sys.SetContext("location", "ward"); err != nil {
		t.Fatal(err)
	}
	if v, ok := sys.GetContext("location"); !ok || v != "ward" {
		t.Fatalf("GetContext = %q,%v", v, ok)
	}
	if err := sys.AddActiveRole("nina", sid, "WardNurse"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetContext("location", "lobby"); err != nil {
		t.Fatal(err)
	}
	roles, err := sys.SessionRoles(sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(roles) != 0 {
		t.Fatalf("roles after context change: %v", roles)
	}
}

func TestPeriodicReportsThroughFacade(t *testing.T) {
	sim := activerbac.NewSimClock(t0)
	sys, err := activerbac.Open(xyzPolicy+"report pulse every 15m\n",
		&activerbac.Options{Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var got []activerbac.SystemReport
	sys.OnReport(func(r activerbac.SystemReport) { got = append(got, r) })
	sim.Advance(time.Hour + time.Second)
	if len(got) != 4 {
		t.Fatalf("reports = %d, want 4", len(got))
	}
	if got[3].Tick != 4 || got[3].Roles != 5 {
		t.Fatalf("last report %+v", got[3])
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	sys := openXYZ(t)
	sid, _ := sys.CreateSession("bob")
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveState(path); err != nil {
		t.Fatal(err)
	}
	restored, err := activerbac.OpenSnapshot(path, &activerbac.Options{Clock: activerbac.NewSimClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	// The restored system has the session with PC active and the full
	// rule pool.
	if !restored.CheckAccess(sid, activerbac.Permission{Operation: "write", Object: "purchase-order.dat"}) {
		t.Fatal("restored session lost access")
	}
	if len(restored.Rules()) != len(sys.Rules()) {
		t.Fatal("rule pool not regenerated")
	}
	if _, err := activerbac.OpenSnapshot(filepath.Join(dir, "missing.json"), nil); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// Concurrency smoke: the facade must serve overlapping enforcement
// traffic from many goroutines without races or invariant damage (run
// with -race in CI).
func TestConcurrentFacadeTraffic(t *testing.T) {
	sys := openXYZ(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := activerbac.UserID("bob")
			if g%2 == 1 {
				user = "alice"
			}
			sid, err := sys.CreateSession(user)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 60; i++ {
				_ = sys.AddActiveRole(user, sid, "PC")
				sys.CheckAccess(sid, activerbac.Permission{Operation: "write", Object: "purchase-order.dat"})
				_ = sys.DropActiveRole(user, sid, "PC")
			}
			if err := sys.DeleteSession(sid); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if errsInv := sys.CheckInvariants(); len(errsInv) != 0 {
		t.Fatalf("invariants: %v", errsInv)
	}
	if errsV := sys.VerifyRules(); len(errsV) != 0 {
		t.Fatalf("verify: %v", errsV)
	}
}

func TestAuditLogIntegration(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.log")
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{
		Clock:     activerbac.NewSimClock(t0),
		AuditPath: auditPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := sys.CreateSession("bob")
	sys.AddActiveRole("bob", sid, "PC")
	sys.CheckAccess(sid, activerbac.Permission{Operation: "write", Object: "purchase-order.dat"})
	sys.CheckAccess(sid, activerbac.Permission{Operation: "steal", Object: "x"})
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []store.AuditRecord
	if err := store.Replay(auditPath, func(r store.AuditRecord) { recs = append(recs, r) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) < 4 {
		t.Fatalf("audit records = %d, want >= 4", len(recs))
	}
	sawDeny := false
	for _, r := range recs {
		if r.Kind == "decision" && !r.Allowed && r.Rule == "CA1" {
			sawDeny = true
		}
	}
	if !sawDeny {
		t.Fatal("denied CheckAccess not audited")
	}
}
