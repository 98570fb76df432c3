package activerbac_test

// A week at Mercy General Hospital: one policy exercising every feature
// of the system together — hierarchies, SSD/DSD, cardinality, shifts,
// durations, time SoD, CFD dependencies, context, privacy, active
// security, periodic reports — driven through a simulated week and
// checked at each stage. This is the repository's end-to-end narrative
// test: if a cross-feature interaction regresses, it surfaces here.

import (
	"errors"
	"testing"
	"time"

	"activerbac"
)

const hospitalWeekPolicy = `
policy "mercy-general"

role ChiefOfMedicine
role Doctor
role Nurse
role DayDoctor
role Pharmacist
role Auditor
role BillingClerk

hierarchy ChiefOfMedicine > Doctor > Nurse

# A pharmacist must never also audit the pharmacy.
ssd pharmacy-audit 2: Pharmacist, Auditor
# Billing and auditing must not happen in one session.
dsd billing-audit 2: BillingClerk, Auditor

permission Doctor: prescribe medication
permission Nurse: read chart.dat
permission Pharmacist: dispense medication
permission Auditor: read ledger.dat
permission BillingClerk: write ledger.dat

user chief: ChiefOfMedicine
user dora: Doctor
user nick: Nurse
user dana: DayDoctor
user phil: Pharmacist
user ada: Auditor, BillingClerk

cardinality ChiefOfMedicine 1
maxroles ada 1

shift DayDoctor 08:00:00-18:00:00
duration * Nurse 8h
timesod ward-coverage 08:00:00-18:00:00: Nurse, Doctor

require DayDoctor needs-active ChiefOfMedicine
context Pharmacist requires pharmacy = open

purpose treatment
purpose diagnosis < treatment
bind Nurse read chart.dat for treatment
consent-required chart.dat

threshold probes 4 in 30m: lock-user
report daily every 24h
`

func TestHospitalWeek(t *testing.T) {
	monday := time.Date(2026, 7, 6, 7, 0, 0, 0, time.UTC) // 07:00 Monday
	sim := activerbac.NewSimClock(monday)
	sys, err := activerbac.Open(hospitalWeekPolicy, &activerbac.Options{Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var reports []activerbac.SystemReport
	sys.OnReport(func(r activerbac.SystemReport) { reports = append(reports, r) })

	at := func(day int, h, m int) time.Time {
		return time.Date(2026, 7, 6+day, h, m, 0, 0, time.UTC)
	}
	perm := func(op, obj string) activerbac.Permission {
		return activerbac.Permission{Operation: op, Object: obj}
	}

	// --- Monday 07:00: before the day shift -----------------------------
	danaSid, err := sys.CreateSession("dana")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("dana", danaSid, "DayDoctor"); err == nil {
		t.Fatal("DayDoctor active before the 08:00 shift")
	}

	// --- Monday 08:30: shift open, but Rule 9 needs the chief ----------
	sim.AdvanceTo(at(0, 8, 30))
	if err := sys.AddActiveRole("dana", danaSid, "DayDoctor"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("DayDoctor without chief: %v", err)
	}
	chiefSid, err := sys.CreateSession("chief")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("chief", chiefSid, "ChiefOfMedicine"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("dana", danaSid, "DayDoctor"); err != nil {
		t.Fatalf("DayDoctor with chief active: %v", err)
	}

	// --- Monday 09:00: the nurse starts; privacy needs consent ---------
	sim.AdvanceTo(at(0, 9, 0))
	nickSid, err := sys.CreateSession("nick")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("nick", nickSid, "Nurse"); err != nil {
		t.Fatal(err)
	}
	chart := activerbac.CheckRequest{Session: string(nickSid), Operation: "read", Object: "chart.dat", Purpose: "treatment"}
	if sys.Check(chart).Allowed {
		t.Fatal("chart read without patient consent")
	}
	if err := sys.GrantConsent("chart.dat", "treatment"); err != nil {
		t.Fatal(err)
	}
	chart.Purpose = "diagnosis"
	if !sys.Check(chart).Allowed {
		t.Fatal("chart read denied despite consent (diagnosis < treatment)")
	}

	// --- Monday 12:00: pharmacy opens; context gates phil ---------------
	sim.AdvanceTo(at(0, 12, 0))
	philSid, err := sys.CreateSession("phil")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("phil", philSid, "Pharmacist"); err == nil {
		t.Fatal("Pharmacist active while the pharmacy is closed")
	}
	if err := sys.SetContext("pharmacy", "open"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("phil", philSid, "Pharmacist"); err != nil {
		t.Fatal(err)
	}
	// SSD: phil can never be assigned the Auditor role.
	if err := sys.AssignUser("phil", "Auditor"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("pharmacy-audit SSD: %v", err)
	}

	// --- Monday 14:00: ada audits; DSD and maxroles hold ----------------
	adaSid, err := sys.CreateSession("ada")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("ada", adaSid, "Auditor"); err != nil {
		t.Fatal(err)
	}
	// maxroles ada 1 vetoes a second active role before DSD even gets a
	// say.
	if err := sys.AddActiveRole("ada", adaSid, "BillingClerk"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("ada second role: %v", err)
	}

	// --- Monday 15:00: ward time-SoD keeps one role enabled -------------
	sim.AdvanceTo(at(0, 15, 0))
	if err := sys.DisableRole("Doctor"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DisableRole("Nurse"); !errors.Is(err, activerbac.ErrDenied) {
		t.Fatalf("ward left uncovered: %v", err)
	}
	if err := sys.EnableRole("Doctor"); err != nil {
		t.Fatal(err)
	}

	// --- Monday 17:10: nick's 8h duration bound expired ------------------
	sim.AdvanceTo(at(0, 17, 10))
	if roles, _ := sys.SessionRoles(nickSid); len(roles) != 0 {
		t.Fatalf("nurse still active after 8h: %v", roles)
	}

	// --- Monday 18:05: shift closed; mallory-style probing begins -------
	sim.AdvanceTo(at(0, 18, 5))
	if sys.RoleEnabled("DayDoctor") {
		t.Fatal("DayDoctor enabled after 18:00")
	}
	evilSid, err := sys.CreateSession("phil")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sys.CheckAccess(evilSid, perm("read", "payroll.db"))
	}
	if !sys.UserLocked("phil") {
		t.Fatal("probing user not locked")
	}
	if len(sys.Alerts()) != 1 {
		t.Fatalf("alerts = %v", sys.Alerts())
	}
	if err := sys.UnlockUser("phil"); err != nil {
		t.Fatal(err)
	}

	// --- The rest of the week: daily reports accumulate ------------------
	sim.AdvanceTo(at(6, 23, 0))
	if len(reports) != 6 {
		t.Fatalf("daily reports = %d, want 6 over the week", len(reports))
	}
	if reports[len(reports)-1].Denials == 0 {
		t.Fatal("weekly report shows no denials despite the probing")
	}

	// --- Friday: HR reorganizes via policy edit --------------------------
	edited := hospitalWeekPolicy + "role Intern\nhierarchy Nurse > Intern\nuser izzy: Intern\n"
	rep, err := sys.ApplyPolicy(edited)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RolesAdded) != 1 || rep.RolesAdded[0] != "Intern" {
		t.Fatalf("reorg report: %+v", rep)
	}
	izzySid, err := sys.CreateSession("izzy")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("izzy", izzySid, "Intern"); err != nil {
		t.Fatal(err)
	}

	// --- End of week: the system is internally consistent ----------------
	if errs := sys.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants: %v", errs)
	}
	if errs := sys.VerifyRules(); len(errs) != 0 {
		t.Fatalf("rule verification: %v", errs)
	}
}
