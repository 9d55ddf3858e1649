package sdn

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/packet"
)

// Action is what the switch does with packets of a flow.
type Action int

// Flow actions.
const (
	ActionDrop Action = iota + 1
	ActionForward
)

// String returns the lowercase action name.
func (a Action) String() string {
	if a == ActionForward {
		return "forward"
	}
	return "drop"
}

// FlowEntry is one installed micro-flow as Entry reports it: an
// exact-match key plus the action the controller decided.
type FlowEntry struct {
	Key      packet.FlowKey
	Action   Action
	Packets  uint64
	Bytes    uint64
	Created  time.Time
	LastUsed time.Time
}

// entry is a FlowEntry as a port holds it, in 128 bytes: timestamps as
// Unix nanoseconds (the LRU scan compares 64 of them), the action in a
// byte.
type entry struct {
	key      packet.FlowKey
	packets  uint64
	bytes    uint64
	created  int64
	lastUsed int64
	// peer marks a decision that read the destination's rule, dstRule
	// (nil: it had none): a hit only while the rule cache still holds
	// exactly that pointer for the destination. Put stores a fresh copy
	// per put, so the pointer is the rule's identity (DESIGN §10).
	dstRule *EnforcementRule
	peer    bool
	action  uint8
}

// The ports are striped over portStripes locks (a power of two), and a
// port holds at most portFlows flows, as hardware and OVS tables are
// bounded: past that a device recycles its own least recently used one.
const portStripes, portFlows = 64, 64

// port is what the switch keeps per source MAC: the device's flows,
// scanned linearly, and the traffic counters of the controller's
// monitoring module (Sect. V). dsts is the set behind
// DeviceStats.Destinations; a new destination address is a new flow key,
// so only the miss path touches it.
type port struct {
	flows []entry
	stats DeviceStats
	dsts  map[netip.Addr]struct{}
}

type portStripe struct {
	mu    sync.Mutex
	ports map[macKey]*port
	flows int      // installed over all ports, for Len
	_     [40]byte // a cache line per stripe
}

// FlowTable is the switch's exact-match flow table, kept per source MAC
// and striped by it. All methods are safe for concurrent use.
type FlowTable struct {
	stripes [portStripes]portStripe
	// IdleTimeout evicts entries not used for this long (checked by
	// Expire, driven by the caller's clock).
	IdleTimeout time.Duration

	// rules is nil for a table without a switch: Install remembers no rule.
	rules   *RuleCache
	metrics atomic.Pointer[SwitchMetrics]
}

// NewFlowTable returns an empty table with the given idle timeout
// (non-positive selects 30 s, a common OpenFlow default).
func NewFlowTable(idleTimeout time.Duration) *FlowTable {
	if idleTimeout <= 0 {
		idleTimeout = 30 * time.Second
	}
	t := &FlowTable{IdleTimeout: idleTimeout}
	for i := range t.stripes {
		t.stripes[i].ports = make(map[macKey]*port)
	}
	return t
}

// macKey is a MAC's six bytes as an integer, hashed once for its stripe
// and once, on the runtime's 64-bit map fast path, for its port.
type macKey uint64

func keyOf(mac packet.MAC) macKey {
	return macKey(binary.LittleEndian.Uint32(mac[:4])) | macKey(binary.LittleEndian.Uint16(mac[4:]))<<32
}

func (t *FlowTable) stripe(k macKey) *portStripe {
	return &t.stripes[k*0x9e3779b97f4a7c15>>58] // top 6 bits: portStripes
}

// port returns mac's port, opening it at its first frame.
func (st *portStripe) port(mac packet.MAC, now time.Time) *port {
	k := keyOf(mac)
	p := st.ports[k]
	if p == nil {
		p = &port{stats: DeviceStats{MAC: mac, FirstSeen: now}, dsts: make(map[netip.Addr]struct{})}
		st.ports[k] = p
	}
	return p
}

// find scans for k's flow, discriminating fields first; the source MAC
// is the port's.
func (p *port) find(k *packet.FlowKey) *entry {
	for i := range p.flows {
		if f := &p.flows[i].key; f.DstPort == k.DstPort && f.SrcPort == k.SrcPort && f.DstIP == k.DstIP &&
			f.DstMAC == k.DstMAC && f.Proto == k.Proto && f.SrcIP == k.SrcIP && f.Ethertype == k.Ethertype {
			return &p.flows[i]
		}
	}
	return nil
}

// put installs or replaces k's flow in p, which is st's; at the bound it
// takes the place of p's least recently used one.
func (t *FlowTable) put(st *portStripe, p *port, k *packet.FlowKey, act Action, on basis, now int64) {
	f := p.find(k)
	switch {
	case f != nil:
	case len(p.flows) < portFlows:
		p.flows = append(p.flows, entry{})
		f = &p.flows[len(p.flows)-1]
		st.flows++
	default:
		f = &p.flows[0]
		for i := range p.flows {
			if p.flows[i].lastUsed < f.lastUsed {
				f = &p.flows[i]
			}
		}
		t.metrics.Load().evicted(evictBound, 1)
	}
	*f = entry{key: *k, action: uint8(act), created: now, lastUsed: now, peer: on.peer, dstRule: on.dst}
}

// Install adds or replaces the entry for key. A device at its bound of
// 64 flows has its least-recently-used one replaced.
func (t *FlowTable) Install(key packet.FlowKey, action Action, now time.Time) {
	st := t.stripe(keyOf(key.SrcMAC))
	st.mu.Lock()
	t.put(st, st.port(key.SrcMAC, now), &key, action, basis{}, now.UnixNano())
	st.mu.Unlock()
}

// admit is the second lock hold of a miss: it counts the frame, notes
// its destination, and installs the decision — unless the source's rule
// is no longer the one the decision read: a rule change and its
// InvalidateDevice ran in between, and the flow would outlive the sweep
// meant for it. The frame keeps its verdict either way.
func (t *FlowTable) admit(k *packet.FlowKey, act Action, on basis, size int, now time.Time) {
	st := t.stripe(keyOf(k.SrcMAC))
	st.mu.Lock()
	p := st.port(k.SrcMAC, now)
	p.count(size, act, now)
	if k.DstIP.IsValid() {
		p.dsts[k.DstIP] = struct{}{}
	}
	if t.rules.peek(k.SrcMAC) == on.src {
		t.put(st, p, k, act, on, now.UnixNano())
	}
	st.mu.Unlock()
}

func (p *port) count(size int, act Action, now time.Time) {
	p.stats.Packets++
	p.stats.Bytes += uint64(size)
	p.stats.LastSeen = now
	if act == ActionDrop {
		p.stats.Dropped++
	}
}

// Match looks up the flow for key and, on a hit, updates its counters.
func (t *FlowTable) Match(key packet.FlowKey, size int, now time.Time) (Action, bool) {
	return t.match(&key, size, now)
}

// match is the forward path: one stripe lock, one lookup, a scan of the
// device's flows, the flow's and the device's counters in the same hold.
func (t *FlowTable) match(k *packet.FlowKey, size int, now time.Time) (Action, bool) {
	src := keyOf(k.SrcMAC)
	st := t.stripe(src)
	st.mu.Lock()
	if p := st.ports[src]; p != nil {
		if f := p.find(k); f != nil && (!f.peer || t.rules.peek(k.DstMAC) == f.dstRule) {
			f.packets++
			f.bytes += uint64(size)
			f.lastUsed = now.UnixNano()
			act := Action(f.action)
			p.count(size, act, now)
			st.mu.Unlock()
			return act, true
		}
	}
	st.mu.Unlock()
	return 0, false
}

// Expire removes entries idle for IdleTimeout or longer and returns the
// number evicted. It holds one stripe at a time; DeleteFunc moves nothing
// in a port that loses nothing and zeroes what it drops.
func (t *FlowTable) Expire(now time.Time) int {
	cutoff := now.UnixNano() - int64(t.IdleTimeout)
	idle := func(f entry) bool { return f.lastUsed <= cutoff }
	evicted := 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		before := st.flows
		for _, p := range st.ports {
			n := len(p.flows)
			p.flows = slices.DeleteFunc(p.flows, idle)
			st.flows -= n - len(p.flows)
		}
		evicted += before - st.flows
		st.mu.Unlock()
	}
	t.metrics.Load().evicted(evictIdle, evicted)
	return evicted
}

// RemoveByMAC evicts the flows mac is the source of and returns their
// number; flows towards mac stop matching once its rule changes.
func (t *FlowTable) RemoveByMAC(mac packet.MAC) int { return t.drop(mac, false) }

// drop evicts mac's flows and, with forget, its port and counters.
func (t *FlowTable) drop(mac packet.MAC, forget bool) int {
	k := keyOf(mac)
	st := t.stripe(k)
	st.mu.Lock()
	n := 0
	if p := st.ports[k]; p != nil {
		n = len(p.flows)
		clear(p.flows) // the rules they remember can go
		p.flows = p.flows[:0]
		st.flows -= n
		if forget {
			delete(st.ports, k)
		}
	}
	st.mu.Unlock()
	t.metrics.Load().evicted(evictInvalidated, n)
	return n
}

// Len returns the number of installed flows.
func (t *FlowTable) Len() int {
	n := 0
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		n += st.flows
		st.mu.Unlock()
	}
	return n
}

// Entry returns a copy of the entry for key, if installed.
func (t *FlowTable) Entry(key packet.FlowKey) (FlowEntry, bool) {
	src := keyOf(key.SrcMAC)
	st := t.stripe(src)
	st.mu.Lock()
	defer st.mu.Unlock()
	if p := st.ports[src]; p != nil {
		if f := p.find(&key); f != nil {
			return FlowEntry{
				Key: f.key, Action: Action(f.action), Packets: f.packets, Bytes: f.bytes,
				Created: time.Unix(0, f.created), LastUsed: time.Unix(0, f.lastUsed),
			}, true
		}
	}
	return FlowEntry{}, false
}
