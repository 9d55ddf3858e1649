package sdn

import (
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
// exact-match key plus the action the controller decided. Traffic is
// counted per device (DeviceStats), not per flow.
type FlowEntry struct {
	Key      packet.FlowKey
	Action   Action
	LastUsed time.Time
}

// entry is a FlowEntry as a port holds it, in 80 bytes: the key without
// its source MAC (the port's), the transport in a byte, the last use as
// Unix nanoseconds (the LRU scan compares 64 of them), the action in a
// byte. find compares it field by field against the packet's FlowKey.
type entry struct {
	srcIP, dstIP netip.Addr
	lastUsed     int64
	// peer marks a decision that read the destination's rule, dstRule
	// (nil: it had none): a hit only while the rule cache still holds
	// exactly that pointer for the destination. Put stores a fresh copy
	// per put, so the pointer is the rule's identity (DESIGN §10).
	dstRule                     *EnforcementRule
	dstMAC                      packet.MAC
	srcPort, dstPort, ethertype uint16
	proto                       uint8
	peer                        bool
	action                      uint8
}

func entryFor(k *packet.FlowKey, act Action, on basis, now int64) entry {
	return entry{
		srcIP: k.SrcIP, dstIP: k.DstIP, lastUsed: now, dstRule: on.dst, dstMAC: k.DstMAC,
		srcPort: k.SrcPort, dstPort: k.DstPort, ethertype: k.Ethertype,
		proto: uint8(k.Proto), peer: on.peer, action: uint8(act),
	}
}

// key is the entry's FlowKey, src being its port's MAC.
func (f *entry) key(src packet.MAC) packet.FlowKey {
	return packet.FlowKey{
		SrcMAC: src, DstMAC: f.dstMAC, SrcIP: f.srcIP, DstIP: f.dstIP, Proto: packet.TransportProto(f.proto),
		SrcPort: f.srcPort, DstPort: f.dstPort, Ethertype: f.ethertype,
	}
}

// The ports are striped over portStripes locks, a port's stripe being
// the top six bits of its MAC's partition (packet.MACWord.Part, the one
// the capture fanout's rings and the gateway's shards split by), and a
// port holds at most portFlows flows, as hardware and OVS tables are
// bounded: past that a device recycles its own least recently used one.
const portStripes, stripeShift, portFlows = 64, 64 - 6, 64

// port is what the switch keeps per source MAC: the device's flows,
// scanned linearly, and the traffic counters of the controller's
// monitoring module (Sect. V), its timestamps as Unix nanoseconds. dsts
// is the set behind DeviceStats.Destinations; a new destination address
// is a new flow key, so only the miss path touches it.
type port struct {
	flows                   []entry
	mac                     packet.MAC
	packets, bytes, dropped uint64
	firstSeen, lastSeen     int64
	dsts                    dstSet
}

// dstInline is how many destinations a port holds inline, scanned
// linearly, before later ones spill to a map: a device pays for no map
// until it has more, and one contacting thousands stays O(1) a miss.
const dstInline = 4

// dstSet is a set of destination addresses: the first dstInline in
// inline, the rest in spill.
type dstSet struct {
	inline [dstInline]netip.Addr
	spill  map[netip.Addr]struct{}
}

func (s *dstSet) add(a netip.Addr) {
	for i := range s.inline {
		switch s.inline[i] {
		case a:
			return
		case netip.Addr{}:
			s.inline[i] = a
			return
		}
	}
	if s.spill == nil {
		s.spill = make(map[netip.Addr]struct{})
	}
	s.spill[a] = struct{}{}
}

func (s *dstSet) len() int {
	for i, a := range s.inline {
		if !a.IsValid() {
			return i
		}
	}
	return dstInline + len(s.spill)
}

// portStripe is one lock over its ports. counts are the switch's counts
// of the frames Process sent through them, written in the same hold as
// the port's counters — a hit in match, a miss in admit — so counting a
// frame writes nothing another stripe's frames write; Switch.Stats sums
// them.
type portStripe struct {
	mu     sync.Mutex
	ports  map[packet.MACWord]*port
	flows  int // installed over all ports, for Len
	counts SwitchStats
	_      [8]byte // a cache line per stripe
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
		t.stripes[i].ports = make(map[packet.MACWord]*port)
	}
	return t
}

func (t *FlowTable) stripe(k packet.MACWord) *portStripe {
	return &t.stripes[k.Part(stripeShift)]
}

// port returns mac's port, opening it at its first frame.
func (st *portStripe) port(mac packet.MAC, now int64) *port {
	k := mac.Word()
	p := st.ports[k]
	if p == nil {
		p = &port{mac: mac, firstSeen: now}
		st.ports[k] = p
	}
	return p
}

// find scans for k's flow, discriminating fields first; the source MAC
// is the port's. A transport past the stored byte matches nothing.
func (p *port) find(k *packet.FlowKey) *entry {
	for i := range p.flows {
		if f := &p.flows[i]; f.dstPort == k.DstPort && f.srcPort == k.SrcPort && f.dstIP == k.DstIP &&
			f.dstMAC == k.DstMAC && packet.TransportProto(f.proto) == k.Proto && f.srcIP == k.SrcIP && f.ethertype == k.Ethertype {
			return f
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
		if n := cap(p.flows); len(p.flows) == n {
			// Half again, where append would double: a device of five
			// or six flows keeps 480 bytes of them, not 640.
			p.flows = append(make([]entry, 0, min(portFlows, n+max(1, n/2))), p.flows...)
		}
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
	*f = entryFor(k, act, on, now)
}

// Install adds or replaces the entry for key. A device at its bound of
// 64 flows has its least-recently-used one replaced.
func (t *FlowTable) Install(key packet.FlowKey, action Action, now time.Time) {
	st := t.stripe(key.SrcMAC.Word())
	ns := now.UnixNano()
	st.mu.Lock()
	t.put(st, st.port(key.SrcMAC, ns), &key, action, basis{}, ns)
	st.mu.Unlock()
}

// admit is the second lock hold of a miss: it counts the frame, notes
// its destination, and installs the decision — unless the source's rule
// is no longer the one the decision read: a rule change and its
// InvalidateDevice ran in between, and the flow would outlive the sweep
// meant for it. The frame keeps its verdict either way.
func (t *FlowTable) admit(k *packet.FlowKey, act Action, on basis, size int, now time.Time) {
	st := t.stripe(k.SrcMAC.Word())
	ns := now.UnixNano()
	st.mu.Lock()
	p := st.port(k.SrcMAC, ns)
	p.count(size, act, ns)
	st.counts.add(act, false)
	if k.DstIP.IsValid() {
		p.dsts.add(k.DstIP)
	}
	if t.rules.peek(k.SrcMAC) == on.src {
		t.put(st, p, k, act, on, ns)
	}
	st.mu.Unlock()
}

func (p *port) count(size int, act Action, now int64) {
	p.packets++
	p.bytes += uint64(size)
	p.lastSeen = now
	if act == ActionDrop {
		p.dropped++
	}
}

// Match looks up the flow for key and, on a hit, counts the frame
// against its source device. The switch's counts (Switch.Stats) are
// Process's alone: Match leaves them as they are.
func (t *FlowTable) Match(key packet.FlowKey, size int, now time.Time) (Action, bool) {
	return t.match(&key, size, now, false)
}

// match is the forward path: one stripe lock, one lookup, a scan of the
// device's flows, the flow's last use, the device's counters and, when
// switched, the switch's counts in the same hold.
func (t *FlowTable) match(k *packet.FlowKey, size int, now time.Time, switched bool) (Action, bool) {
	src := k.SrcMAC.Word()
	st := t.stripe(src)
	ns := now.UnixNano()
	st.mu.Lock()
	if p := st.ports[src]; p != nil {
		if f := p.find(k); f != nil && (!f.peer || t.rules.peek(k.DstMAC) == f.dstRule) {
			f.lastUsed = ns
			act := Action(f.action)
			p.count(size, act, ns)
			if switched {
				st.counts.add(act, true)
			}
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
	k := mac.Word()
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
	src := key.SrcMAC.Word()
	st := t.stripe(src)
	st.mu.Lock()
	defer st.mu.Unlock()
	if p := st.ports[src]; p != nil {
		if f := p.find(&key); f != nil {
			return FlowEntry{Key: f.key(p.mac), Action: Action(f.action), LastUsed: time.Unix(0, f.lastUsed)}, true
		}
	}
	return FlowEntry{}, false
}
