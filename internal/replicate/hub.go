// Package replicate is the leader/replica policy-distribution
// subsystem: a leader serializes its policy source plus compiled state
// behind each push epoch and streams it over the wire SYNC opcode; a
// replica installs each transfer (after content-hash verification)
// and serves checks entirely from its local snapshot, resyncing
// whenever an EPOCH_PUSH reveals a gap. It replaces the in-process
// internal/cluster seed with a real over-the-wire protocol: the leader
// side is Hub (the SYNC half of a wire.Backend plus a replica
// registry), the replica side is Replica (the sync state machine
// rbacd's replica mode runs).
//
// Staleness semantics: replication is asynchronous. A replica is
// always internally consistent — it serves some epoch the leader
// published — but may lag the leader by the epochs still in flight;
// the lag is observable per replica (Hub.Status, activerbac_replica_
// lag) and bounded in practice by one coalesced sync per push burst.
// On leader loss a replica keeps serving its last-applied epoch: reads
// degrade to stale, never to down.
package replicate

import (
	"crypto/sha256"
	"sort"
	"sync"
	"time"

	"activerbac/internal/wire"
)

// Exporter is the leader-side facade surface the Hub serializes:
// activerbac.System implements it.
type Exporter interface {
	// ExportSyncSnapshot returns the encoded policy + state envelope
	// and the push epoch it is valid at.
	ExportSyncSnapshot() (epoch uint64, data []byte, err error)
	// PushEpoch reports the current push epoch.
	PushEpoch() uint64
}

// HubInstruments are optional leader-side metrics hooks; any field may
// be nil. rbacd wires them to the activerbac_sync_* families.
type HubInstruments struct {
	// Sync is called once per snapshot transfer served (acks excluded).
	Sync func()
	// SyncBytes is called with the payload size of each transfer.
	SyncBytes func(n float64)
	// SyncSeconds observes the serve time (export + cache lookup) of
	// each SYNC request, acks included.
	SyncSeconds func(seconds float64)
}

// Hub is the leader side of the replication protocol: it serves SYNC
// requests (the SyncSnapshot and ReplicaDisconnected methods of
// rbacd's wire.Backend delegate to it) and keeps the replica registry GET /v1/replication
// reports. One encoded snapshot is cached per epoch, so a fleet of N
// replicas resyncing after one push costs one serialization, not N.
type Hub struct {
	exp Exporter
	ins *HubInstruments

	mu sync.Mutex
	// cachedEpoch/cachedData/cachedHash are the per-epoch snapshot
	// cache; invalidated by comparing cachedEpoch to the live push
	// epoch on each request.
	cachedEpoch uint64
	cachedData  []byte
	cachedHash  [wire.SyncHashSize]byte
	replicas    map[string]*replicaEntry
}

// replicaEntry is the registry's view of one replica.
type replicaEntry struct {
	applied   uint64
	lastSync  time.Time
	connected bool
}

// ReplicaStatus is one replica's registry row, as served by
// GET /v1/replication.
type ReplicaStatus struct {
	Name         string    `json:"name"`
	AppliedEpoch uint64    `json:"applied_epoch"`
	Lag          uint64    `json:"lag"`
	LastSync     time.Time `json:"last_sync"`
	Connected    bool      `json:"connected"`
}

// NewHub builds a leader hub around exp; ins may be nil.
func NewHub(exp Exporter, ins *HubInstruments) *Hub {
	return &Hub{exp: exp, ins: ins, replicas: map[string]*replicaEntry{}}
}

// SyncSnapshot serves one SYNC request. A replica that has already
// applied the current epoch gets an ack (empty data, current epoch) —
// that request doubles as the replica's progress report, which is what
// keeps the registry's applied-epoch column honest between transfers.
func (h *Hub) SyncSnapshot(replica string, applied uint64) (wire.SyncState, error) {
	start := time.Now()
	h.mu.Lock()
	e := h.replicas[replica]
	if e == nil {
		e = &replicaEntry{}
		h.replicas[replica] = e
	}
	e.applied = applied
	e.lastSync = start
	e.connected = true

	cur := h.exp.PushEpoch()
	if applied >= cur {
		h.mu.Unlock()
		if h.ins != nil && h.ins.SyncSeconds != nil {
			h.ins.SyncSeconds(time.Since(start).Seconds())
		}
		return wire.SyncState{Epoch: cur}, nil
	}
	if h.cachedData == nil || h.cachedEpoch < cur {
		epoch, data, err := h.exp.ExportSyncSnapshot()
		if err != nil {
			h.mu.Unlock()
			return wire.SyncState{}, err
		}
		h.cachedEpoch, h.cachedData = epoch, data
		h.cachedHash = sha256.Sum256(data)
	}
	st := wire.SyncState{Epoch: h.cachedEpoch, Hash: h.cachedHash, Data: h.cachedData}
	h.mu.Unlock()
	if h.ins != nil {
		if h.ins.Sync != nil {
			h.ins.Sync()
		}
		if h.ins.SyncBytes != nil {
			h.ins.SyncBytes(float64(len(st.Data)))
		}
		if h.ins.SyncSeconds != nil {
			h.ins.SyncSeconds(time.Since(start).Seconds())
		}
	}
	return st, nil
}

// ReplicaDisconnected marks a replica's connection state down; the
// wire server calls it (through wire.Backend) when a connection that
// issued SYNC requests closes.
func (h *Hub) ReplicaDisconnected(replica string) {
	h.mu.Lock()
	if e := h.replicas[replica]; e != nil {
		e.connected = false
	}
	h.mu.Unlock()
}

// Status returns the registry sorted by replica name. Lag is the
// epoch distance between the leader's current push epoch and the
// replica's last-reported applied epoch.
func (h *Hub) Status() []ReplicaStatus {
	cur := h.exp.PushEpoch()
	h.mu.Lock()
	out := make([]ReplicaStatus, 0, len(h.replicas))
	for name, e := range h.replicas {
		lag := uint64(0)
		if cur > e.applied {
			lag = cur - e.applied
		}
		out = append(out, ReplicaStatus{
			Name: name, AppliedEpoch: e.applied, Lag: lag,
			LastSync: e.lastSync, Connected: e.connected,
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
