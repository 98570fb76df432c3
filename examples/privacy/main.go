// Privacy-aware RBAC: the paper's privacy extension — permissions bound
// to business purposes organized in a hierarchy, and objects that
// require data-subject consent. A doctor may read a chart for
// treatment (and its sub-purpose diagnosis) once the patient consents;
// the marketing department never gets it.
//
// Run with:
//
//	go run ./examples/privacy
package main

import (
	"fmt"
	"log"
	"time"

	"activerbac"
)

const clinicPolicy = `
policy "clinic"
role Doctor
role Marketer

permission Doctor: read chart.dat
permission Marketer: read chart.dat   # core RBAC would allow this...

purpose treatment
purpose diagnosis < treatment
purpose billing < treatment
purpose marketing

bind Doctor read chart.dat for treatment
bind Marketer read chart.dat for marketing

consent-required chart.dat

user dora: Doctor
user mark: Marketer
`

func main() {
	sys, err := activerbac.Open(clinicPolicy, &activerbac.Options{
		Clock: activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	chart := activerbac.Permission{Operation: "read", Object: "chart.dat"}

	doraSid, err := sys.CreateSession("dora")
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.AddActiveRole("dora", doraSid, "Doctor"); err != nil {
		log.Fatal(err)
	}
	markSid, err := sys.CreateSession("mark")
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.AddActiveRole("mark", markSid, "Marketer"); err != nil {
		log.Fatal(err)
	}

	show := func(who string, sid activerbac.SessionID, purpose string) {
		ok := sys.Check(activerbac.CheckRequest{
			Session: string(sid), Operation: chart.Operation, Object: chart.Object, Purpose: purpose,
		}).Allowed
		verdict := "DENIED"
		if ok {
			verdict = "allowed"
		}
		fmt.Printf("  %-5s read chart.dat for %-10s -> %s\n", who, purpose, verdict)
	}

	fmt.Println("before the patient consents:")
	show("dora", doraSid, "treatment")
	show("mark", markSid, "marketing")

	fmt.Println("\npatient consents to use for treatment:")
	if err := sys.GrantConsent("chart.dat", "treatment"); err != nil {
		log.Fatal(err)
	}
	show("dora", doraSid, "treatment")
	show("dora", doraSid, "diagnosis") // sub-purpose covered by treatment
	show("dora", doraSid, "marketing") // doctor's binding doesn't cover it
	show("mark", markSid, "marketing") // consent doesn't cover marketing

	fmt.Println("\nplain core-RBAC decision for comparison (no purpose semantics):")
	fmt.Printf("  mark read chart.dat -> %v  <- why privacy-aware RBAC matters\n",
		sys.CheckAccess(markSid, chart))

	fmt.Println("\npatient withdraws consent:")
	if err := sys.RevokeConsent("chart.dat", "treatment"); err != nil {
		log.Fatal(err)
	}
	show("dora", doraSid, "treatment")
}
