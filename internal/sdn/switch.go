package sdn

import (
	"cmp"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/packet"
)

// Overlay is one of the two virtual network overlays of Sect. III-C1.
type Overlay int

// Overlays. Devices with Trusted isolation live in the trusted overlay;
// everything else (strict, restricted, unknown) stays untrusted.
const (
	OverlayUntrusted Overlay = iota + 1
	OverlayTrusted
)

// String returns the lowercase overlay name.
func (o Overlay) String() string {
	if o == OverlayTrusted {
		return "trusted"
	}
	return "untrusted"
}

// OverlayFor maps an isolation level to its overlay.
func OverlayFor(level IsolationLevel) Overlay {
	if level == Trusted {
		return OverlayTrusted
	}
	return OverlayUntrusted
}

// Decision is the controller's verdict for one packet-in, with the
// reason for audit logging.
type Decision struct {
	Action Action
	Reason string
}

// Controller is the Floodlight-style custom module of Sect. V: it owns
// the enforcement-rule cache and decides packet-in events according to
// each device's isolation level and overlay membership.
type Controller struct {
	mu sync.RWMutex
	// rules is the per-device enforcement-rule cache.
	rules *RuleCache
	// localPrefixes separate local destinations from the Internet;
	// they always include IPv6 link-local (fe80::/10) and unique-local
	// (fc00::/7) space in addition to the configured site prefix.
	localPrefixes []netip.Prefix
	// infrastructure MACs (the gateway itself, its DNS/DHCP service)
	// are always reachable.
	infra map[packet.MAC]bool
	// filtering toggles enforcement; when false every flow forwards
	// (the paper's "without filtering" baseline).
	filtering bool

	packetIns atomic.Uint64
}

// NewController returns a controller enforcing rules from cache within
// the given local prefix. A zero prefix selects 192.168.0.0/16.
func NewController(cache *RuleCache, localPrefix netip.Prefix) *Controller {
	if !localPrefix.IsValid() {
		localPrefix = netip.MustParsePrefix("192.168.0.0/16")
	}
	return &Controller{
		rules: cache,
		localPrefixes: []netip.Prefix{
			localPrefix,
			netip.MustParsePrefix("fe80::/10"),
			netip.MustParsePrefix("fc00::/7"),
		},
		infra:     make(map[packet.MAC]bool),
		filtering: true,
	}
}

// isLocal reports whether addr belongs to the local network.
func (c *Controller) isLocal(addr netip.Addr) bool {
	for _, p := range c.localPrefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// Rules exposes the enforcement-rule cache.
func (c *Controller) Rules() *RuleCache { return c.rules }

// QuarantineType is the DeviceType marker carried by fail-closed rules
// installed while a device's assessment is pending retry.
const QuarantineType = "quarantined"

// Quarantine installs — or replaces an existing rule with — a strict,
// fail-closed rule for a device whose assessment failed: per the
// paper's untrusted-by-default posture (Sect. III-B), a device the
// service could not vouch for gets no Internet access and stays in the
// untrusted overlay until a later assessment succeeds.
func (c *Controller) Quarantine(mac packet.MAC) {
	c.rules.Put(&EnforcementRule{DeviceMAC: mac, Level: Strict, DeviceType: QuarantineType})
}

// SetFiltering toggles enforcement (true = filter, false = forward
// everything), matching the with/without-filtering measurement modes.
func (c *Controller) SetFiltering(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.filtering = on
}

// Filtering reports whether enforcement is active.
func (c *Controller) Filtering() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.filtering
}

// AddInfrastructure marks a MAC (gateway interface, servers under the
// operator's control) as always reachable.
func (c *Controller) AddInfrastructure(mac packet.MAC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.infra[mac] = true
}

// PacketIns returns the number of packet-in events handled.
func (c *Controller) PacketIns() uint64 { return c.packetIns.Load() }

// levelOf is the effective isolation level under a device's rule: Strict,
// and so the untrusted overlay, for an unknown device's nil (Sect. III-B).
func levelOf(r *EnforcementRule) IsolationLevel {
	if r == nil {
		return Strict
	}
	return r.Level
}

// basis is what a decision read of the rule cache, by which the flow
// table tells whether it still stands: the version of the source's rule
// (0: none) and, with peer — a unicast, non-infrastructure, local
// destination — of the destination's. It rides beside the exported
// Decision, not in it.
type basis struct {
	src, dst uint64
	peer     bool
}

// PacketIn decides the fate of a new flow. It implements Fig 3:
//
//   - strict:     untrusted overlay peers only, no Internet
//   - restricted: untrusted overlay peers + permitted remote addresses
//   - trusted:    trusted overlay peers + unrestricted Internet
//
// Device-to-device traffic additionally requires both endpoints to be
// in the same overlay, so a compromised untrusted device can never
// reach a trusted one.
func (c *Controller) PacketIn(key packet.FlowKey, _ time.Time) Decision {
	dec, _ := c.decide(&key)
	return dec
}

func (c *Controller) decide(key *packet.FlowKey) (Decision, basis) {
	c.packetIns.Add(1)
	c.mu.RLock()
	filtering := c.filtering
	srcInfra := c.infra[key.SrcMAC]
	dstInfra := c.infra[key.DstMAC]
	c.mu.RUnlock()

	var exempt string
	switch {
	case !filtering:
		exempt = "filtering disabled"
	case srcInfra:
		exempt = "infrastructure source"
	case key.DstMAC.IsBroadcast() || key.DstMAC.IsMulticast():
		// Broadcast and multicast control traffic (DHCP, ARP, SSDP,
		// mDNS) must flow for devices to function at all; it stays on
		// the local segment.
		exempt = "local broadcast/multicast"
	}
	if exempt != "" {
		return Decision{Action: ActionForward, Reason: exempt}, basis{src: c.rules.peek(key.SrcMAC)}
	}

	src, _ := c.rules.Get(key.SrcMAC)
	level := levelOf(src)
	srcVer := versionOf(src)

	// Internet-bound traffic is recognized by destination address, not
	// MAC: the next-hop MAC of an outbound packet is the gateway's own
	// interface, so the infrastructure check must not short-circuit it.
	if !key.DstIP.IsValid() || c.isLocal(key.DstIP) {
		if dstInfra {
			return Decision{Action: ActionForward, Reason: "infrastructure destination"}, basis{src: srcVer}
		}
		dst, _ := c.rules.Get(key.DstMAC)
		on := basis{src: srcVer, dst: versionOf(dst), peer: true}
		if o := OverlayFor(level); o == OverlayFor(levelOf(dst)) {
			return Decision{Action: ActionForward, Reason: "same overlay (" + o.String() + ")"}, on
		}
		return Decision{Action: ActionDrop, Reason: "cross-overlay isolation"}, on
	}

	// Internet-bound traffic.
	on := basis{src: srcVer}
	switch level {
	case Trusted:
		return Decision{Action: ActionForward, Reason: "trusted: full internet access"}, on
	case Restricted:
		if src != nil && src.Permits(key.DstIP) {
			return Decision{Action: ActionForward, Reason: "restricted: permitted endpoint"}, on
		}
		return Decision{Action: ActionDrop, Reason: "restricted: endpoint not permitted"}, on
	default:
		return Decision{Action: ActionDrop, Reason: "strict: no internet access"}, on
	}
}

// SwitchStats counts switch activity.
type SwitchStats struct {
	Forwarded uint64
	Dropped   uint64
	PacketIns uint64
	TableHits uint64
}

// add counts one frame Process handled: a table hit or a packet-in,
// forwarded or dropped.
func (c *SwitchStats) add(act Action, hit bool) {
	if hit {
		c.TableHits++
	} else {
		c.PacketIns++
	}
	if act == ActionForward {
		c.Forwarded++
	} else {
		c.Dropped++
	}
}

// DeviceStats aggregates per-device traffic counters maintained by the
// controller's monitoring module (Sect. V: "network monitoring tasks").
type DeviceStats struct {
	MAC       packet.MAC
	Packets   uint64
	Bytes     uint64
	Dropped   uint64
	FirstSeen time.Time
	LastSeen  time.Time
	// Destinations counts distinct remote endpoints contacted.
	Destinations int
}

// Switch is the Open vSwitch analogue: an exact-match flow table in
// front of the controller. The first packet of each flow goes to the
// controller (packet-in); the decision is installed as a micro-flow and
// subsequent packets are switched in the fast path.
//
// The switch has no lock or counter of its own: frames of one source MAC
// share that port's stripe of the flow table, and the switch's counts
// are kept per stripe, written under the stripe lock a frame already
// holds, so concurrent Process calls on different stripes write nothing
// in common but, on a device-to-device hit, the rule cache's read lock
// (the destination's rule is checked). A stripe is a field of the MAC's
// partition nested in the capture fanout's ring, so up to 64 capture
// readers never take one stripe. Stats sums the stripes one at a time;
// each stripe's counts are consistent, so a frame is never split across
// two of them.
type Switch struct {
	table *FlowTable
	ctrl  *Controller

	// processHook is nil outside tests: Process calls it on a miss between
	// the decision and its install, no lock held.
	processHook func()
}

// NewSwitch wires a switch to its controller.
func NewSwitch(ctrl *Controller, idleTimeout time.Duration) *Switch {
	t := NewFlowTable(idleTimeout)
	t.rules = ctrl.rules
	return &Switch{table: t, ctrl: ctrl}
}

// Table exposes the flow table.
func (s *Switch) Table() *FlowTable { return s.table }

// Controller exposes the controller.
func (s *Switch) Controller() *Controller { return s.ctrl }

// Process forwards or drops one packet, installing a flow on miss. It
// also counts the packet against its source device (Device, TopTalkers)
// and in the switch's counts (Stats).
func (s *Switch) Process(pk *packet.Packet, now time.Time) Action {
	act, _ := s.ProcessHit(pk, now)
	return act
}

// ProcessHit is Process, also reporting whether the packet hit the flow
// table (false: it went to the controller as a packet-in).
func (s *Switch) ProcessHit(pk *packet.Packet, now time.Time) (Action, bool) {
	key := pk.Flow()
	if act, hit := s.table.match(&key, pk.Size, now, true); hit {
		return act, true
	}
	dec, on := s.ctrl.decide(&key)
	if s.processHook != nil {
		s.processHook()
	}
	s.table.admit(&key, dec.Action, on, pk.Size, now)
	return dec.Action, false
}

// SetMetrics attaches an instrumentation bundle (nil detaches it). The
// bundle's traffic series read this switch from then on (SwitchMetrics).
func (s *Switch) SetMetrics(m *SwitchMetrics) {
	if m != nil {
		m.sw.Store(s)
	}
	s.table.metrics.Store(m)
}

// Stats returns the switch's counts, summed over the stripes, each read
// under its lock.
func (s *Switch) Stats() SwitchStats {
	var sum SwitchStats
	for i := range s.table.stripes {
		st := &s.table.stripes[i]
		st.mu.Lock()
		c := st.counts
		st.mu.Unlock()
		sum.Forwarded += c.Forwarded
		sum.Dropped += c.Dropped
		sum.PacketIns += c.PacketIns
		sum.TableHits += c.TableHits
	}
	return sum
}

// InvalidateDevice removes the flows a device is the source of, after
// its rule changed, and returns their number. Flows towards it remember
// the rule they were decided under and are decided afresh.
func (s *Switch) InvalidateDevice(mac packet.MAC) int {
	return s.table.RemoveByMAC(mac)
}

// ForgetDevice drops a departed device's flows and traffic counters.
func (s *Switch) ForgetDevice(mac packet.MAC) { s.table.drop(mac, true) }

// Device returns the traffic counters of one source MAC.
func (s *Switch) Device(mac packet.MAC) (DeviceStats, bool) {
	k := mac.Word()
	st := s.table.stripe(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	p := st.ports[k]
	if p == nil {
		return DeviceStats{}, false
	}
	return p.snapshot(), true
}

func (p *port) snapshot() DeviceStats {
	return DeviceStats{
		MAC: p.mac, Packets: p.packets, Bytes: p.bytes, Dropped: p.dropped,
		FirstSeen: time.Unix(0, p.firstSeen), LastSeen: time.Unix(0, p.lastSeen),
		Destinations: p.dsts.len(),
	}
}

// TopTalkers returns up to n devices ordered by descending byte count
// (all of them for n <= 0).
func (s *Switch) TopTalkers(n int) []DeviceStats {
	var out []DeviceStats
	for i := range s.table.stripes {
		st := &s.table.stripes[i]
		st.mu.Lock()
		for _, p := range st.ports {
			out = append(out, p.snapshot())
		}
		st.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b DeviceStats) int {
		return cmp.Or(cmp.Compare(b.Bytes, a.Bytes), a.MAC.Compare(b.MAC))
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
