package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultLease is how long a gateway registration lives without any
// frame arriving on its connection.
const DefaultLease = 30 * time.Second

// GatewayInfo is a read-only view of one registered gateway.
type GatewayInfo struct {
	ID string
	// Addr is the remote address of the live connection ("" when the
	// gateway is between connections but its lease has not expired).
	Addr string
	// ModelSHA is the bank the gateway last acknowledged serving.
	ModelSHA string
	// Assessed and Unknown are the gateway's cumulative self-reported
	// counters (ftCounters frames).
	Assessed, Unknown uint64
	// LastSeen is when the gateway's lease was last refreshed.
	LastSeen time.Time
	// Connected reports whether a live connection backs the entry.
	Connected bool
}

// member is one registry entry. The conn pointer is owned by the
// server; the registry only uses its serialized push/close methods.
type member struct {
	id       string
	conn     *serverConn
	expires  time.Time
	lastSeen time.Time
	modelSHA string
	assessed uint64
	unknown  uint64
	// rebased is set by register and cleared by the first counters after
	// it: only there may a gateway's cumulative counters move backwards
	// (its process restarted).
	rebased bool
}

// Registry tracks the registered gateway fleet: identity, lease,
// last-acked model version, and the streamed per-gateway counters the
// rollout controller judges canaries by.
type Registry struct {
	lease   time.Duration
	metrics *Metrics

	mu      sync.Mutex
	members map[string]*member
}

// NewRegistry returns an empty registry; lease <= 0 selects
// DefaultLease.
func NewRegistry(lease time.Duration, m *Metrics) *Registry {
	if lease <= 0 {
		lease = DefaultLease
	}
	return &Registry{lease: lease, metrics: m, members: make(map[string]*member)}
}

// Lease returns the configured lease duration.
func (r *Registry) Lease() time.Duration { return r.lease }

// register creates or refreshes the entry for id and binds it to conn.
// A reconnect under the same ID displaces the previous connection
// (returned so the server can close it outside the registry lock).
func (r *Registry) register(id string, conn *serverConn, now time.Time) (displaced *serverConn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok {
		m = &member{id: id}
		r.members[id] = m
	}
	if m.conn != nil && m.conn != conn {
		displaced = m.conn
	}
	m.conn = conn
	m.rebased = true
	m.lastSeen = now
	m.expires = now.Add(r.lease)
	r.metrics.setGateways(len(r.members))
	return displaced
}

// touch refreshes id's lease (any frame counts as liveness).
func (r *Registry) touch(id string, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[id]; ok {
		m.lastSeen = now
		m.expires = now.Add(r.lease)
	}
}

// disconnect detaches conn from its member without dropping the entry:
// the lease keeps the gateway's identity (and counters) alive across a
// reconnect window.
func (r *Registry) disconnect(id string, conn *serverConn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[id]; ok && m.conn == conn {
		m.conn = nil
	}
}

// setCounters records a gateway's cumulative counters. A reading lower
// than the last one on the same connection is stale, not news — the
// gateway's flush path and its model ack, which carries a reading too,
// are written by different goroutines and can overtake each other — and
// is dropped, so that within a connection the counters only grow and a
// drop across connections means what the rollout controller takes it to
// mean: a restarted gateway.
func (r *Registry) setCounters(id string, assessed, unknown uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[id]; ok && (assessed >= m.assessed || m.rebased) {
		m.assessed = assessed
		m.unknown = unknown
		m.rebased = false
	}
}

// setModel records the bank a gateway acknowledged applying.
func (r *Registry) setModel(id, sha string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[id]; ok {
		m.modelSHA = sha
	}
}

// counters returns a gateway's cumulative counters.
func (r *Registry) counters(id string) (assessed, unknown uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, found := r.members[id]
	if !found {
		return 0, 0, false
	}
	return m.assessed, m.unknown, true
}

// ExpireLeases drops every member whose lease lapsed before now,
// closing any connection still attached, and returns the dropped IDs
// (the controller removes them from an in-flight canary set).
func (r *Registry) ExpireLeases(now time.Time) []string {
	r.mu.Lock()
	var expired []string
	var conns []*serverConn
	for id, m := range r.members {
		if now.After(m.expires) {
			expired = append(expired, id)
			if m.conn != nil {
				conns = append(conns, m.conn)
			}
			delete(r.members, id)
		}
	}
	r.metrics.setGateways(len(r.members))
	r.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	for range expired {
		r.metrics.incLeaseExpiry()
	}
	sort.Strings(expired)
	return expired
}

// IDs returns the registered gateway IDs, sorted (deterministic canary
// selection depends on this order).
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Gateways returns a sorted snapshot of the fleet for ops display.
func (r *Registry) Gateways() []GatewayInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GatewayInfo, 0, len(r.members))
	for _, m := range r.members {
		info := GatewayInfo{
			ID:       m.id,
			ModelSHA: m.modelSHA,
			Assessed: m.assessed,
			Unknown:  m.unknown,
			LastSeen: m.lastSeen,
		}
		if m.conn != nil {
			info.Connected = true
			info.Addr = m.conn.remoteAddr()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// push sends a model blob to one gateway over its live connection.
func (r *Registry) push(id, sha string, model []byte) error {
	r.mu.Lock()
	m, ok := r.members[id]
	var conn *serverConn
	if ok {
		conn = m.conn
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: gateway %q not registered", id)
	}
	if conn == nil {
		return fmt.Errorf("fleet: gateway %q not connected", id)
	}
	return conn.pushModel(sha, model)
}
