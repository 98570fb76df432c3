//go:build !race

// The race detector instruments allocations and makes sync.Pool drop
// items at random, so allocation counts are only meaningful without it.

package activerbac_test

import (
	"testing"

	"activerbac"
)

// TestCheckHitAllocs gates the warm fast-path hit: a single Check must
// not allocate at all, and a one-element CheckAccessBatch may allocate
// at most 4 times (its count when the gate was introduced; ratchet
// down only). Fast path on, metrics off.
func TestCheckHitAllocs(t *testing.T) {
	sys, err := activerbac.Open(xyzPolicy, &activerbac.Options{
		Clock:    activerbac.NewSimClock(t0),
		FastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	req := activerbac.CheckRequest{Session: string(sid), Operation: "write", Object: "purchase-order.dat"}
	if !sys.Check(req).Allowed {
		t.Fatal("fixture check denied")
	}
	if n := testing.AllocsPerRun(200, func() { sys.Check(req) }); n != 0 {
		t.Errorf("warm Check hit: %v allocs/op, want 0", n)
	}

	batch := []activerbac.CheckRequest{req}
	buf := sys.CheckAccessBatch(batch, make([]bool, 0, 1))
	if n := testing.AllocsPerRun(200, func() { buf = sys.CheckAccessBatch(batch, buf[:0]) }); n > 4 {
		t.Errorf("warm one-element CheckAccessBatch hit: %v allocs/op, want <= 4", n)
	}
	if st, _ := sys.FastPathStats(); st.Hits == 0 {
		t.Errorf("no fast-path hits: %+v", st)
	}
}
