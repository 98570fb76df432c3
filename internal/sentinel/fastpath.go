package sentinel

import (
	"sync"
	"sync/atomic"
)

// The decision fast path serves repeat ALLOW verdicts for cacheable
// enforcement events without re-running the rule cascade. It is an
// epoch-tagged, sharded map from the request tuple
// (event, user, session, operation, object) to the settled *Decision.
//
// Correctness rests on three guards, all enforced by the engine before
// a verdict is served or stored:
//
//   - eligibility: the event must have exactly one scope-marked
//     subscriber in the detector (no composite parents, no escalation)
//     and every enabled rule on it must be CacheSafe with no outcome
//     listeners registered — see Engine.cacheable;
//   - epoch tagging: entries carry the fast-path epoch and the
//     session's generation as observed BEFORE the cascade ran. Any
//     policy/rule/event-graph change bumps the epoch, any session
//     change bumps the session generation, so a mutation that
//     interleaves with a cascade always lands after the capture and
//     the stored entry is born stale;
//   - allow-only: denials are never cached, so the Else branch (denial
//     recording, audit) runs on every denied request.
//
// Sessions hash into a fixed array of generation slots; two sessions
// sharing a slot merely over-invalidate each other, never under.
const (
	fpShards       = 64
	fpShardCap     = 4096
	fpSessionSlots = 256
)

// fpEntry is one cached verdict with the epoch pair it was computed
// under.
type fpEntry struct {
	dec   *Decision
	epoch uint64
	sgen  uint64
}

// fpShard is one cache shard: readers load the map pointer and index it
// lock-free; writers clone-and-swap under the shard mutex. Misses are
// rare after warm-up, so the O(n) clone on insert is off the hot path.
type fpShard struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]fpEntry]
	// mapEpoch is the fast-path epoch the current map was built under;
	// an insert after an invalidation starts a fresh map instead of
	// dragging dead entries along. Guarded by mu.
	mapEpoch uint64
}

// FastPath is the sharded decision cache. All methods are safe for
// concurrent use.
type FastPath struct {
	epoch  atomic.Uint64
	sgens  [fpSessionSlots]atomic.Uint64
	shards [fpShards]fpShard

	hits          atomic.Uint64
	misses        atomic.Uint64
	bypass        atomic.Uint64
	invalidations atomic.Uint64
}

// FastPathStats is a point-in-time snapshot of the cache counters.
type FastPathStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Bypass        uint64 `json:"bypass"`
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
}

func newFastPath() *FastPath {
	f := &FastPath{}
	for i := range f.shards {
		empty := make(map[string]fpEntry)
		f.shards[i].m.Store(&empty)
	}
	return f
}

// Stats snapshots the counters.
func (f *FastPath) Stats() FastPathStats {
	return FastPathStats{
		Hits:          f.hits.Load(),
		Misses:        f.misses.Load(),
		Bypass:        f.bypass.Load(),
		Invalidations: f.invalidations.Load(),
		Epoch:         f.epoch.Load(),
	}
}

// Invalidate drops every cached verdict by bumping the epoch; entries
// tagged with older epochs fail validation and are discarded lazily.
func (f *FastPath) Invalidate() {
	f.epoch.Add(1)
	f.invalidations.Add(1)
}

// InvalidateSession drops cached verdicts for one session by bumping
// its generation slot.
func (f *FastPath) InvalidateSession(sid string) {
	f.sgens[fnv1aString(sid)&(fpSessionSlots-1)].Add(1)
	f.invalidations.Add(1)
}

// sgen returns the current generation of the session's slot.
func (f *FastPath) sgen(session string) uint64 {
	return f.sgens[fnv1aString(session)&(fpSessionSlots-1)].Load()
}

// lookup returns the cached decision for key if it is still valid under
// the given epoch pair.
func (f *FastPath) lookup(key []byte, epoch, sgen uint64) (*Decision, bool) {
	sh := &f.shards[fnv1a(key)&(fpShards-1)]
	ent, ok := (*sh.m.Load())[string(key)] // no-alloc map index
	if !ok || ent.epoch != epoch || ent.sgen != sgen {
		return nil, false
	}
	return ent.dec, true
}

// store publishes a settled decision under the epoch pair captured
// before its cascade ran. A stale capture (epoch moved on) is dropped;
// an over-full or pre-invalidation shard map is restarted fresh.
func (f *FastPath) store(key []byte, dec *Decision, epoch, sgen uint64) {
	cur := f.epoch.Load()
	if epoch != cur {
		return
	}
	sh := &f.shards[fnv1a(key)&(fpShards-1)]
	sh.mu.Lock()
	old := *sh.m.Load()
	var m map[string]fpEntry
	if sh.mapEpoch != cur || len(old) >= fpShardCap {
		m = make(map[string]fpEntry, 64)
		sh.mapEpoch = cur
	} else {
		m = make(map[string]fpEntry, len(old)+1)
		for k, v := range old {
			m[k] = v
		}
	}
	m[string(key)] = fpEntry{dec: dec, epoch: epoch, sgen: sgen}
	sh.m.Store(&m)
	sh.mu.Unlock()
}

// fpKeyPool recycles key buffers so the hit path allocates nothing.
var fpKeyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// appendFPKey encodes the request tuple as length-prefixed fields. A
// field longer than 255 bytes makes the tuple unencodable (bypass).
func appendFPKey(buf []byte, event, user, session, operation, object string) ([]byte, bool) {
	for _, s := range [...]string{event, user, session, operation, object} {
		if len(s) > 255 {
			return nil, false
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, true
}

// fpRequest extracts the cacheable request fields from params. Any
// parameter outside the known string quartet makes the request
// uncacheable: an unknown parameter could steer a rule condition and
// must not collapse into another tuple's cache line.
func fpRequest(params map[string]any) (t CheckTuple, ok bool) {
	for k, v := range params {
		s, isStr := v.(string)
		if !isStr {
			return CheckTuple{}, false
		}
		switch k {
		case "user":
			t.User = s
		case "session":
			t.Session = s
		case "operation":
			t.Operation = s
		case "object":
			t.Object = s
		default:
			return CheckTuple{}, false
		}
	}
	return t, true
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func fnv1aString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
