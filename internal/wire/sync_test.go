package wire

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// SYNC payload codecs

func TestSyncRequestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		replica string
		applied uint64
	}{
		{"replica-1", 0},
		{"eu-west", 1<<64 - 1},
		{"", 7}, // empty name is a server-side policy error, not a codec error
	} {
		b := AppendSyncRequest(nil, tc.replica, tc.applied)
		r2, a2, err := ConsumeSyncRequest(b)
		if err != nil || r2 != tc.replica || a2 != tc.applied {
			t.Fatalf("round trip (%q %d) -> (%q %d, %v)", tc.replica, tc.applied, r2, a2, err)
		}
	}
	if _, _, err := ConsumeSyncRequest(AppendSyncRequest(nil, "r", 9)[:4]); err == nil {
		t.Fatal("truncated sync request decoded")
	}
	if _, _, err := ConsumeSyncRequest(append(AppendSyncRequest(nil, "r", 9), 0)); err == nil {
		t.Fatal("sync request with trailing bytes decoded")
	}
}

func TestSyncStateRoundTrip(t *testing.T) {
	st := SyncState{Epoch: 42, Data: []byte("snapshot payload")}
	for i := range st.Hash {
		st.Hash[i] = byte(i * 7)
	}
	b := AppendSyncState(nil, st)
	got, err := ConsumeSyncState(b)
	if err != nil || got.Epoch != st.Epoch || got.Hash != st.Hash || !bytes.Equal(got.Data, st.Data) {
		t.Fatalf("round trip -> (%+v, %v)", got, err)
	}
	// The decoded Data must be a copy, not a view of the decode buffer.
	b[len(b)-1] ^= 0xFF
	if !bytes.Equal(got.Data, st.Data) {
		t.Fatal("decoded sync data aliases the input buffer")
	}

	// Ack shape: current epoch, zero hash, no data.
	ack, err := ConsumeSyncState(AppendSyncState(nil, SyncState{Epoch: 9}))
	if err != nil || ack.Epoch != 9 || len(ack.Data) != 0 {
		t.Fatalf("ack round trip -> (%+v, %v)", ack, err)
	}

	for _, bad := range [][]byte{
		b[:4],                                // truncated epoch
		b[:8+SyncHashSize-1],                 // truncated hash
		b[:len(b)-3],                         // truncated data
		append(append([]byte(nil), b...), 1), // trailing bytes
	} {
		if _, err := ConsumeSyncState(bad); err == nil {
			t.Fatalf("malformed sync state (%d bytes) decoded", len(bad))
		}
	}
}

// ---------------------------------------------------------------------------
// SYNC over a live server

// syncTestBackend makes testBackend a replication leader, recording
// every SYNC request and disconnect.
type syncTestBackend struct {
	*testBackend

	mu           sync.Mutex
	requests     []string
	applieds     []uint64
	disconnected []string
	state        SyncState
	err          error
}

func newSyncTestBackend() *syncTestBackend {
	return &syncTestBackend{testBackend: newTestBackend()}
}

func (sb *syncTestBackend) SyncSnapshot(replica string, applied uint64) (SyncState, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.requests = append(sb.requests, replica)
	sb.applieds = append(sb.applieds, applied)
	return sb.state, sb.err
}

func (sb *syncTestBackend) ReplicaDisconnected(replica string) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.disconnected = append(sb.disconnected, replica)
}

func TestSyncOverWire(t *testing.T) {
	sb := newSyncTestBackend()
	sb.state = SyncState{Epoch: 12, Data: []byte(`{"version":1}`)}
	sb.state.Hash[0] = 0xAB
	_, addr := startServer(t, sb, nil)

	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	st, err := cl.Sync("site-a", 3)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st.Epoch != 12 || st.Hash != sb.state.Hash || !bytes.Equal(st.Data, sb.state.Data) {
		t.Fatalf("Sync = %+v, want %+v", st, sb.state)
	}
	sb.mu.Lock()
	if len(sb.requests) != 1 || sb.requests[0] != "site-a" || sb.applieds[0] != 3 {
		t.Fatalf("backend saw requests %v applieds %v", sb.requests, sb.applieds)
	}
	sb.mu.Unlock()

	// An empty replica name is rejected without dropping the connection.
	if _, err := cl.Sync("", 0); err == nil {
		t.Fatal("empty replica name accepted")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection died after rejected sync: %v", err)
	}

	// Closing the connection reports the replica name the conn last used.
	cl.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		sb.mu.Lock()
		n := len(sb.disconnected)
		sb.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ReplicaDisconnected never called")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sb.mu.Lock()
	if sb.disconnected[0] != "site-a" {
		t.Fatalf("disconnected %v, want [site-a]", sb.disconnected)
	}
	sb.mu.Unlock()
}

func TestSyncBackendError(t *testing.T) {
	sb := newSyncTestBackend()
	sb.err = errors.New("export failed")
	_, addr := startServer(t, sb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Sync("site-a", 0); err == nil {
		t.Fatal("backend error not surfaced")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection died after backend error: %v", err)
	}
}

func TestSyncUnsupportedBackend(t *testing.T) {
	// A non-leader backend (a replica's own wire listener) returns
	// ErrUnsupported from SyncSnapshot: the server answers SYNC with
	// ERROR(unsupported) and keeps the connection.
	_, addr := startServer(t, newTestBackend(), nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	_, err = cl.Sync("site-a", 0)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeUnsupported {
		t.Fatalf("Sync on plain backend = %v, want unsupported remote error", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection died after unsupported sync: %v", err)
	}
}
