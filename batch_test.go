package activerbac_test

import (
	"strings"
	"testing"

	"activerbac"
)

// TestCheckAccessBatchMatchesSequential: the facade batch path must
// agree with CheckAccess on every element, in input order, with
// duplicates and unknown sessions included, both cold and with the
// fast path warm — for every request shape: plain, traced,
// WantCacheable, Purpose, and a batch whose first request is traced.
func TestCheckAccessBatchMatchesSequential(t *testing.T) {
	// A near-zero sample rate keeps untraced checks on the fast path
	// while the ring retains client-traced ones.
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{
		Clock:       activerbac.NewSimClock(t0),
		FastPath:    true,
		Metrics:     true,
		TraceBuffer: 16,
		TraceSample: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	bobSid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", bobSid, "PC"); err != nil {
		t.Fatal(err)
	}
	aliceSid, err := sys.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("alice", aliceSid, "PM"); err != nil {
		t.Fatal(err)
	}

	bob, alice := string(bobSid), string(aliceSid)
	checks := []activerbac.BatchCheck{
		{Session: bob, Operation: "write", Object: "purchase-order.dat"},
		{Session: alice, Operation: "read", Object: "lobby.txt"},
		{Session: bob, Operation: "approve", Object: "purchase-order.dat"},
		{Session: bob, Operation: "write", Object: "purchase-order.dat"}, // duplicate of [0]
		{Session: "no-such-session", Operation: "read", Object: "lobby.txt"},
		{Session: alice, Operation: "read", Object: "lobby.txt"}, // duplicate of [1]
		{Session: bob, Operation: "write", Object: "purchase-order.dat", WantCacheable: true},
		{Session: bob, Operation: "approve", Object: "purchase-order.dat", WantCacheable: true},
		{Session: alice, Operation: "read", Object: "lobby.txt", Trace: activerbac.NewTraceID()},
	}
	caWant := func(c activerbac.CheckRequest) bool {
		return sys.CheckAccess(activerbac.SessionID(c.Session),
			activerbac.Permission{Operation: c.Operation, Object: c.Object})
	}
	// The purpose request names a CA1 allow, but xyz binds no purposes,
	// so CAP1 denies it: a path that dropped Purpose would allow.
	purposed := activerbac.CheckRequest{Session: bob, Operation: "write", Object: "purchase-order.dat", Purpose: "audit"}
	if !caWant(purposed) {
		t.Fatal("purpose fixture is not a CA1 allow")
	}
	const purposeWant = false

	want := make([]bool, len(checks))
	for i, c := range checks {
		want[i] = caWant(c)
		res := sys.Check(c)
		if res.Allowed != want[i] {
			t.Errorf("Check(%+v).Allowed = %v, want %v", c, res.Allowed, want[i])
		}
		// Cacheable only when asked, and only on a CA1 allow.
		if wantCacheable := c.WantCacheable && want[i]; res.Cacheable != wantCacheable {
			t.Errorf("Check(%+v).Cacheable = %v, want %v", c, res.Cacheable, wantCacheable)
		}
		if !c.Trace.IsZero() {
			if _, ok, err := sys.TraceByTraceID(c.Trace); err != nil || !ok {
				t.Errorf("trace %s of Check(%+v) did not resolve (ok=%v err=%v)", c.Trace, c, ok, err)
			}
		}
	}
	if res := sys.Check(purposed); res.Allowed != purposeWant || res.Cacheable {
		t.Errorf("Check(%+v) = %+v, want the CAP1 deny", purposed, res)
	}

	// Two rounds: the first populates the fast path, the second must be
	// served (at least partly) from it — same verdicts either way.
	buf := make([]bool, 0, len(checks))
	for round := 0; round < 2; round++ {
		got := sys.CheckAccessBatch(checks, buf[:0])
		if len(got) != len(want) {
			t.Fatalf("round %d: %d verdicts, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d: verdict[%d] = %v, want %v (%+v)", round, i, got[i], want[i], checks[i])
			}
		}
		if cap(got) != cap(buf) {
			t.Errorf("round %d: verdict slice reallocated (cap %d, want %d)", round, cap(got), cap(buf))
		}
	}

	// A batch whose first request is traced: that request's trace
	// resolves, every verdict still matches.
	first := activerbac.CheckRequest{Session: bob, Operation: "write", Object: "purchase-order.dat", Trace: activerbac.NewTraceID()}
	got := sys.CheckAccessBatch(append([]activerbac.BatchCheck{first}, checks...), nil)
	if len(got) != len(checks)+1 || got[0] != caWant(first) {
		t.Fatalf("traced batch = %v, want %v then %v", got, caWant(first), want)
	}
	for i := range want {
		if got[i+1] != want[i] {
			t.Errorf("traced batch: verdict[%d] = %v, want %v (%+v)", i+1, got[i+1], want[i], checks[i])
		}
	}
	if _, ok, err := sys.TraceByTraceID(first.Trace); err != nil || !ok {
		t.Errorf("batch trace %s did not resolve (ok=%v err=%v)", first.Trace, ok, err)
	}

	// A batch carrying a purpose decides it through CAP1.
	got = sys.CheckAccessBatch(append(append([]activerbac.BatchCheck(nil), checks...), purposed), nil)
	if len(got) != len(checks)+1 || got[len(checks)] != purposeWant {
		t.Fatalf("purpose batch = %v, want %v then %v", got, want, purposeWant)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("purpose batch: verdict[%d] = %v, want %v (%+v)", i, got[i], want[i], checks[i])
		}
	}

	stats, err := sys.FastPathStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits == 0 {
		t.Errorf("fast path saw no hits across warm batch round: %+v", stats)
	}

	var sb strings.Builder
	if err := sys.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, metric := range []string{
		"activerbac_batch_size_sum",
		"activerbac_batch_groups_total",
		"activerbac_batch_fastpath_hits_total",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics output missing %s", metric)
		}
	}
}

// TestCheckAccessBatchEmpty: zero checks answer zero verdicts without
// touching the engine.
func TestCheckAccessBatchEmpty(t *testing.T) {
	sys := openXYZ(t)
	if got := sys.CheckAccessBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
}
