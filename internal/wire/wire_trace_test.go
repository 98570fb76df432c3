package wire

import (
	"testing"
	"time"
)

func TestTraceIDPayloadRoundTrip(t *testing.T) {
	tid := [TraceIDSize]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	b := AppendTraceID(nil, tid)
	b = AppendCheck(b, "s", "read", "doc")
	got, rest, err := ConsumeTraceID(b)
	if err != nil {
		t.Fatalf("ConsumeTraceID: %v", err)
	}
	if got != tid {
		t.Fatalf("tid = %v, want %v", got, tid)
	}
	s, op, obj, err := ConsumeCheck(rest)
	if err != nil || s != "s" || op != "read" || obj != "doc" {
		t.Fatalf("ConsumeCheck after tid = (%q,%q,%q,%v)", s, op, obj, err)
	}
	if _, _, err := ConsumeTraceID(make([]byte, TraceIDSize-1)); err == nil {
		t.Fatal("ConsumeTraceID accepted a short prefix")
	}
}

func TestOpNameFlags(t *testing.T) {
	cases := map[byte]string{
		OpCheck:                             "check",
		OpCheck | TraceFlag:                 "check",
		OpCheck | TraceFlag | RespFlag:      "check",
		OpCheckBatch | TraceFlag:            "check_batch",
		OpCheckBatch | TraceFlag | RespFlag: "check_batch",
		OpError:                             "error",
		OpPing:                              "ping",
	}
	for op, want := range cases {
		if got := OpName(op); got != want {
			t.Errorf("OpName(%#x) = %q, want %q", op, got, want)
		}
	}
}

func TestCheckTraced(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tid := [TraceIDSize]byte{0xAB, 1: 0xCD, 15: 0xEF}
	allowed, err := cl.CheckTraced("s1", "read", "doc", tid)
	if err != nil || !allowed {
		t.Fatalf("CheckTraced = (%v, %v), want (true, nil)", allowed, err)
	}
	allowed, err = cl.CheckTraced("s1", "write", "doc", tid)
	if err != nil || allowed {
		t.Fatalf("CheckTraced write = (%v, %v), want (false, nil)", allowed, err)
	}

	btid := [TraceIDSize]byte{7: 0x42}
	verdicts, err := cl.CheckManyTraced([]CheckRequest{
		{Session: "s1", Operation: "read", Object: "a"},
		{Session: "s1", Operation: "write", Object: "b"},
	}, btid)
	if err != nil {
		t.Fatalf("CheckManyTraced: %v", err)
	}
	if len(verdicts) != 2 || !verdicts[0] || verdicts[1] {
		t.Fatalf("verdicts = %v, want [true false]", verdicts)
	}

	seen := tb.seen()
	if len(seen) != 3 || seen[0] != tid || seen[1] != tid || seen[2] != btid {
		t.Fatalf("backend saw tids %v, want [%v %v %v]", seen, tid, tid, btid)
	}
}

// A truncated trace-id prefix must condemn only the frame, not the
// connection.
func TestTracedBadPrefixKeepsConn(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// Hand-roll a TraceFlag CHECK whose payload is shorter than a trace
	// id.
	if _, err := cl.roundTrip(OpCheck|TraceFlag, []byte{1, 2, 3}); err == nil {
		t.Fatal("short traced payload did not error")
	} else if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	// The connection must still serve ordinary requests.
	if allowed, err := cl.Check("s1", "read", "doc"); err != nil || !allowed {
		t.Fatalf("Check after bad traced frame = (%v, %v)", allowed, err)
	}
}
