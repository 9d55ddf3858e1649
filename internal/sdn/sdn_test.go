package sdn

import (
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
)

var (
	devA  = packet.MAC{0x02, 0xaa, 0, 0, 0, 1}
	devB  = packet.MAC{0x02, 0xaa, 0, 0, 0, 2}
	devC  = packet.MAC{0x02, 0xaa, 0, 0, 0, 3}
	gwMAC = packet.MAC{0x02, 0x1a, 0x11, 0, 0, 1}
	ipA   = netip.MustParseAddr("192.168.1.10")
	ipB   = netip.MustParseAddr("192.168.1.11")
	ipC   = netip.MustParseAddr("192.168.1.12")
	cloud = netip.MustParseAddr("52.20.1.1")
	other = netip.MustParseAddr("8.8.8.8")
)

func newTestController() *Controller {
	cache := NewRuleCache()
	ctrl := NewController(cache, netip.Prefix{})
	ctrl.AddInfrastructure(gwMAC)
	cache.Put(&EnforcementRule{DeviceMAC: devA, Level: Strict, DeviceType: "unknown-cam"})
	cache.Put(&EnforcementRule{DeviceMAC: devB, Level: Restricted,
		PermittedIPs: []netip.Addr{cloud}, DeviceType: "plug"})
	cache.Put(&EnforcementRule{DeviceMAC: devC, Level: Trusted, DeviceType: "hub"})
	return ctrl
}

func flow(src, dst packet.MAC, srcIP, dstIP netip.Addr) packet.FlowKey {
	return packet.FlowKey{
		SrcMAC: src, DstMAC: dst, SrcIP: srcIP, DstIP: dstIP,
		Proto: packet.TransportTCP, SrcPort: 40000, DstPort: 443,
		Ethertype: packet.EtherTypeIPv4,
	}
}

func TestIsolationLevelString(t *testing.T) {
	if Strict.String() != "strict" || Restricted.String() != "restricted" || Trusted.String() != "trusted" {
		t.Error("level names wrong")
	}
	if OverlayUntrusted.String() != "untrusted" || OverlayTrusted.String() != "trusted" {
		t.Error("overlay names wrong")
	}
}

func TestControllerDecisions(t *testing.T) {
	ctrl := newTestController()
	now := time.Unix(0, 0)
	tests := []struct {
		name string
		key  packet.FlowKey
		want Action
	}{
		{"strict-to-internet", flow(devA, gwMAC, ipA, other), ActionDrop},
		{"strict-to-untrusted-peer", flow(devA, devB, ipA, ipB), ActionForward},
		{"strict-to-trusted-peer", flow(devA, devC, ipA, ipC), ActionDrop},
		{"restricted-to-permitted-cloud", flow(devB, gwMAC, ipB, cloud), ActionForward},
		{"restricted-to-other-internet", flow(devB, gwMAC, ipB, other), ActionDrop},
		{"restricted-to-untrusted-peer", flow(devB, devA, ipB, ipA), ActionForward},
		{"restricted-to-trusted-peer", flow(devB, devC, ipB, ipC), ActionDrop},
		{"trusted-to-internet", flow(devC, gwMAC, ipC, other), ActionForward},
		{"trusted-to-untrusted-peer", flow(devC, devA, ipC, ipA), ActionDrop},
		{"unknown-device-to-internet", flow(packet.MAC{9, 9, 9, 9, 9, 9}, gwMAC, ipA, other), ActionDrop},
		{"unknown-device-to-untrusted", flow(packet.MAC{8, 9, 9, 9, 9, 9}, devA, ipA, ipB), ActionForward},
		{"infra-source", flow(gwMAC, devA, ipB, ipA), ActionForward},
		{"to-infra", flow(devA, gwMAC, ipA, netip.MustParseAddr("192.168.1.1")), ActionForward},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dec := ctrl.PacketIn(tt.key, now)
			if dec.Action != tt.want {
				t.Errorf("PacketIn = %v (%s), want %v", dec.Action, dec.Reason, tt.want)
			}
			if dec.Reason == "" {
				t.Error("decision must carry a reason")
			}
		})
	}
}

func TestBroadcastAlwaysForwarded(t *testing.T) {
	ctrl := newTestController()
	key := packet.FlowKey{
		SrcMAC: devA,
		DstMAC: packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		Proto:  packet.TransportUDP, SrcPort: 68, DstPort: 67,
	}
	if dec := ctrl.PacketIn(key, time.Unix(0, 0)); dec.Action != ActionForward {
		t.Errorf("broadcast dropped: %s", dec.Reason)
	}
	mcast := key
	mcast.DstMAC = packet.MAC{0x01, 0x00, 0x5e, 0, 0, 0xfb}
	if dec := ctrl.PacketIn(mcast, time.Unix(0, 0)); dec.Action != ActionForward {
		t.Errorf("multicast dropped: %s", dec.Reason)
	}
}

func TestFilteringDisabled(t *testing.T) {
	ctrl := newTestController()
	ctrl.SetFiltering(false)
	if ctrl.Filtering() {
		t.Fatal("Filtering() = true after disable")
	}
	key := flow(devA, gwMAC, ipA, other) // would be dropped when filtering
	if dec := ctrl.PacketIn(key, time.Unix(0, 0)); dec.Action != ActionForward {
		t.Errorf("disabled filtering still dropped: %s", dec.Reason)
	}
}

func TestSwitchFastPath(t *testing.T) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	pk := packet.NewTLSClientHello(devB, gwMAC, ipB, cloud, 40000, 100)
	now := time.Unix(100, 0)

	if act := sw.Process(pk, now); act != ActionForward {
		t.Fatalf("first packet action = %v", act)
	}
	before := ctrl.PacketIns()
	for i := 0; i < 5; i++ {
		if act := sw.Process(pk, now.Add(time.Duration(i)*time.Second)); act != ActionForward {
			t.Fatalf("fast-path packet %d action = %v", i, act)
		}
	}
	if got := ctrl.PacketIns(); got != before {
		t.Errorf("fast path still hit controller: %d -> %d packet-ins", before, got)
	}
	st := sw.Stats()
	if st.Forwarded != 6 || st.PacketIns != 1 || st.TableHits != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSwitchDropCounted(t *testing.T) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	pk := packet.NewTLSClientHello(devA, gwMAC, ipA, other, 40000, 100)
	if act := sw.Process(pk, time.Unix(0, 0)); act != ActionDrop {
		t.Fatalf("strict-to-internet forwarded")
	}
	if st := sw.Stats(); st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSwitchInvalidateDevice(t *testing.T) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	now := time.Unix(0, 0)
	sw.Process(packet.NewTLSClientHello(devA, gwMAC, ipA, other, 40000, 10), now)
	sw.Process(packet.NewTLSClientHello(devB, gwMAC, ipB, cloud, 40001, 10), now)
	if sw.Table().Len() != 2 {
		t.Fatalf("table len = %d", sw.Table().Len())
	}
	// devA is promoted to Trusted: old flows must be invalidated and
	// the next packet re-decided.
	ctrl.Rules().Put(&EnforcementRule{DeviceMAC: devA, Level: Trusted})
	if n := sw.InvalidateDevice(devA); n != 1 {
		t.Errorf("invalidated %d flows, want 1", n)
	}
	if act := sw.Process(packet.NewTLSClientHello(devA, gwMAC, ipA, other, 40000, 10), now); act != ActionForward {
		t.Error("promoted device still dropped")
	}
}

// TestNoStaleFlowAcrossRuleChange puts a rule change and its
// invalidation between a miss's decision and its install: the frame
// keeps the verdict it was decided under, but no flow may survive to
// apply it to the next one.
func TestNoStaleFlowAcrossRuleChange(t *testing.T) {
	now := time.Unix(0, 0)
	t.Run("source quarantined", func(t *testing.T) {
		ctrl := newTestController()
		sw := NewSwitch(ctrl, time.Minute)
		pk := packet.NewTCPSyn(devC, gwMAC, ipC, other, 40000, 443)
		sw.processHook = func() {
			sw.processHook = nil
			ctrl.Quarantine(devC)
			sw.InvalidateDevice(devC)
		}
		if act := sw.Process(pk, now); act != ActionForward {
			t.Fatalf("frame decided under Trusted: %v", act)
		}
		if n := sw.Table().Len(); n != 0 {
			t.Errorf("%d flows installed after the sweep", n)
		}
		if act := sw.Process(pk, now); act != ActionDrop {
			t.Errorf("quarantined device's next frame: %v", act)
		}
		if act := sw.Process(pk, now); act != ActionDrop || sw.Stats().TableHits != 1 {
			t.Errorf("third frame: %v, stats %+v", act, sw.Stats())
		}
	})
	t.Run("destination changes overlay", func(t *testing.T) {
		ctrl := newTestController()
		sw := NewSwitch(ctrl, time.Minute)
		pk := packet.NewTCPSyn(devA, devB, ipA, ipB, 40000, 443)
		sw.processHook = func() {
			sw.processHook = nil
			ctrl.Rules().Put(&EnforcementRule{DeviceMAC: devB, Level: Trusted})
			sw.InvalidateDevice(devB)
		}
		if act := sw.Process(pk, now); act != ActionForward {
			t.Fatalf("frame decided with both untrusted: %v", act)
		}
		if act := sw.Process(pk, now); act != ActionDrop {
			t.Errorf("untrusted to newly trusted peer: %v", act)
		}
		if act := sw.Process(pk, now); act != ActionDrop || sw.Stats().TableHits != 1 {
			t.Errorf("third frame: %v, stats %+v", act, sw.Stats())
		}
		// The same change outside the window: the flow towards devB is
		// listed nowhere, yet stops matching.
		ctrl.Rules().Put(&EnforcementRule{DeviceMAC: devB, Level: Strict})
		if n := sw.InvalidateDevice(devB); n != 0 {
			t.Errorf("InvalidateDevice(devB) = %d, devB sources no flow", n)
		}
		if act := sw.Process(pk, now); act != ActionForward || sw.Stats().PacketIns != 3 {
			t.Errorf("after devB returned to the untrusted overlay: %v, stats %+v", act, sw.Stats())
		}
	})
}

func TestFlowTableExpiry(t *testing.T) {
	ft := NewFlowTable(10 * time.Second)
	base := time.Unix(0, 0)
	k1 := flow(devA, devB, ipA, ipB)
	k2 := flow(devB, devA, ipB, ipA)
	ft.Install(k1, ActionForward, base)
	ft.Install(k2, ActionForward, base)
	// k2 stays fresh via a match at t+8s.
	ft.Match(k2, 100, base.Add(8*time.Second))
	if n := ft.Expire(base.Add(12 * time.Second)); n != 1 {
		t.Errorf("expired %d flows, want 1", n)
	}
	if _, ok := ft.Entry(k2); !ok {
		t.Error("fresh flow evicted")
	}
}

func TestFlowEntryCounters(t *testing.T) {
	sw := NewSwitch(newTestController(), 0)
	ft := sw.Table()
	if ft.IdleTimeout != 30*time.Second {
		t.Errorf("default idle timeout = %v", ft.IdleTimeout)
	}
	k := flow(devA, devB, ipA, ipB)
	now := time.Unix(5, 0)
	ft.Install(k, ActionForward, now)
	ft.Match(k, 100, now.Add(time.Second))
	ft.Match(k, 200, now.Add(2*time.Second))
	e, ok := ft.Entry(k)
	if !ok {
		t.Fatal("entry missing")
	}
	if ds, _ := sw.Device(devA); ds.Packets != 2 || ds.Bytes != 300 || !ds.LastSeen.Equal(now.Add(2*time.Second)) {
		t.Errorf("device counters = %d pkts / %d bytes, last seen %v", ds.Packets, ds.Bytes, ds.LastSeen)
	}
	if !e.LastUsed.Equal(now.Add(2 * time.Second)) {
		t.Errorf("LastUsed = %v", e.LastUsed)
	}
}

func TestRuleCache(t *testing.T) {
	c := NewRuleCache()
	r := &EnforcementRule{DeviceMAC: devA, Level: Restricted,
		PermittedIPs: []netip.Addr{cloud}, DeviceType: "plug"}
	c.Put(r)
	got, ok := c.Get(devA)
	if !ok {
		t.Fatal("rule missing")
	}
	if got.Level != Restricted || !got.Permits(cloud) || got.Permits(other) {
		t.Errorf("rule = %+v", got)
	}
	if c.Len() != 1 || c.ApproxBytes() <= 0 {
		t.Errorf("len=%d bytes=%d", c.Len(), c.ApproxBytes())
	}
	// Replacement must not leak memory accounting.
	before := c.ApproxBytes()
	c.Put(r)
	if c.ApproxBytes() != before || c.Len() != 1 {
		t.Errorf("replacement changed accounting: %d -> %d", before, c.ApproxBytes())
	}
	if !c.Remove(devA) || c.Len() != 0 || c.ApproxBytes() != 0 {
		t.Errorf("remove failed: len=%d bytes=%d", c.Len(), c.ApproxBytes())
	}
	if c.Remove(devA) {
		t.Error("double remove succeeded")
	}
	if _, ok := c.Get(devA); ok {
		t.Error("removed rule still present")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestRuleCacheSnapshotSorted(t *testing.T) {
	c := NewRuleCache()
	c.Put(&EnforcementRule{DeviceMAC: devB, Level: Strict})
	c.Put(&EnforcementRule{DeviceMAC: devA, Level: Strict})
	rules := c.Rules()
	if len(rules) != 2 || rules[0].DeviceMAC != devA {
		t.Errorf("snapshot = %v", rules)
	}
}

func TestRuleCacheMemoryGrowsLinearly(t *testing.T) {
	// Fig 6c property: memory grows linearly with rule count.
	c := NewRuleCache()
	var at1000, at2000 int
	for i := 0; i < 2000; i++ {
		mac := packet.MAC{0x02, 0, byte(i >> 16), byte(i >> 8), byte(i), 1}
		c.Put(&EnforcementRule{DeviceMAC: mac, Level: Strict})
		if i == 999 {
			at1000 = c.ApproxBytes()
		}
	}
	at2000 = c.ApproxBytes()
	if at2000 <= at1000 || at2000 > at1000*21/10 {
		t.Errorf("memory not linear: %d at 1000, %d at 2000", at1000, at2000)
	}
}

func TestActionString(t *testing.T) {
	if ActionForward.String() != "forward" || ActionDrop.String() != "drop" {
		t.Error("action names wrong")
	}
}

func TestTrafficMonitor(t *testing.T) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	now := time.Unix(100, 0)

	// devB (restricted): one permitted flow, one dropped flow.
	okPkt := packet.NewTLSClientHello(devB, gwMAC, ipB, cloud, 40000, 100)
	badPkt := packet.NewTLSClientHello(devB, gwMAC, ipB, other, 40001, 100)
	sw.Process(okPkt, now)
	sw.Process(okPkt, now.Add(time.Second))
	sw.Process(badPkt, now.Add(2*time.Second))
	// devC (trusted): big transfer.
	bigPkt := packet.NewTCP(devC, gwMAC, ipC, other, 40002, 443, make([]byte, 1200))
	sw.Process(bigPkt, now.Add(3*time.Second))

	st, ok := sw.Device(devB)
	if !ok {
		t.Fatal("devB untracked")
	}
	if st.Packets != 3 || st.Dropped != 1 || st.Destinations != 2 || st.Bytes != uint64(2*okPkt.Size+badPkt.Size) {
		t.Errorf("devB stats = %+v", st)
	}
	if !st.FirstSeen.Equal(now) || !st.LastSeen.Equal(now.Add(2*time.Second)) {
		t.Errorf("devB seen %v to %v", st.FirstSeen, st.LastSeen)
	}

	top := sw.TopTalkers(1)
	if len(top) != 1 || top[0].MAC != devC {
		t.Errorf("top talker = %+v", top)
	}
	if all := sw.TopTalkers(0); len(all) != 2 || all[1].MAC != devB {
		t.Errorf("all talkers = %+v", all)
	}
	// The counters outlive the flows: an invalidation and an idle sweep
	// take the flows only.
	sw.InvalidateDevice(devB)
	sw.Table().Expire(now.Add(time.Hour))
	if st, ok := sw.Device(devB); !ok || st.Packets != 3 || sw.Table().Len() != 0 {
		t.Errorf("after invalidation and expiry: %+v (tracked %v), %d flows", st, ok, sw.Table().Len())
	}
	sw.Process(okPkt, now.Add(4*time.Second))
	sw.ForgetDevice(devB)
	if _, ok := sw.Device(devB); ok || len(sw.TopTalkers(0)) != 1 || sw.Table().Len() != 0 {
		t.Error("ForgetDevice left counters or flows behind")
	}
	if _, ok := sw.Device(devA); ok {
		t.Error("untracked device reported")
	}
	sw.Process(okPkt, now.Add(5*time.Second)) // a forgotten device starts over
	if st, _ := sw.Device(devB); st.Packets != 1 || !st.FirstSeen.Equal(now.Add(5*time.Second)) {
		t.Errorf("devB after forget = %+v", st)
	}
}

// TestFlowTableCapacityEviction: a device's 65th flow replaces that
// device's least-recently-used one and leaves another device's alone.
func TestFlowTableCapacityEviction(t *testing.T) {
	reg := obs.NewRegistry()
	sw := NewSwitch(newTestController(), time.Minute)
	sw.SetMetrics(NewSwitchMetrics(reg))
	ft := sw.Table()
	base := time.Unix(0, 0)
	key := func(src packet.MAC, i int) packet.FlowKey {
		k := flow(src, devB, ipA, ipB)
		k.SrcPort = uint16(1000 + i)
		return k
	}
	for i := 0; i < portFlows; i++ {
		ft.Install(key(devA, i), ActionForward, base.Add(time.Duration(i)*time.Second))
	}
	ft.Install(key(devC, 0), ActionForward, base)
	if ft.Len() != portFlows+1 {
		t.Fatalf("len = %d, want %d", ft.Len(), portFlows+1)
	}
	// Touching key 0 makes key 1 devA's LRU.
	ft.Match(key(devA, 0), 10, base.Add(time.Hour))
	ft.Install(key(devA, portFlows), ActionForward, base.Add(2*time.Hour))
	if ft.Len() != portFlows+1 {
		t.Fatalf("len after the 65th flow = %d, want %d", ft.Len(), portFlows+1)
	}
	if _, ok := ft.Entry(key(devA, 1)); ok {
		t.Error("LRU entry not evicted")
	}
	for _, i := range []int{0, 2, portFlows - 1, portFlows} {
		if _, ok := ft.Entry(key(devA, i)); !ok {
			t.Errorf("devA flow %d evicted", i)
		}
	}
	if e, ok := ft.Entry(key(devC, 0)); !ok || !e.LastUsed.Equal(base) {
		t.Error("another device's older flow evicted")
	}
	// Reinstalling an existing key at the bound must not evict anyone.
	ft.Install(key(devA, 5), ActionDrop, base.Add(3*time.Hour))
	if e, _ := ft.Entry(key(devA, 5)); ft.Len() != portFlows+1 || e.Action != ActionDrop {
		t.Errorf("len after reinstall = %d, action %v", ft.Len(), e.Action)
	}
	// The switch's own miss path is bounded the same way, and counted.
	for i := 0; i < 3; i++ {
		sw.Process(packet.NewTCPSyn(devA, gwMAC, ipA, other, uint16(2000+i), 443), base.Add(4*time.Hour))
	}
	if ft.Len() != portFlows+1 {
		t.Errorf("len after 3 more flows through Process = %d", ft.Len())
	}
	if got := reg.Snapshot().Value("sdn_switch_flow_evictions_total", "reason", "bound"); got != 4 {
		t.Errorf("bound evictions counted = %v, want 4", got)
	}
}

func TestIPv6LinkLocalIsLocal(t *testing.T) {
	ctrl := newTestController()
	// Two strict devices exchanging IPv6 link-local unicast stay in
	// the untrusted overlay: local traffic, not Internet-bound.
	key := packet.FlowKey{
		SrcMAC: devA, DstMAC: devB,
		SrcIP: netip.MustParseAddr("fe80::1"), DstIP: netip.MustParseAddr("fe80::2"),
		Proto: packet.TransportUDP, SrcPort: 5353, DstPort: 5353,
		Ethertype: packet.EtherTypeIPv6,
	}
	if dec := ctrl.PacketIn(key, time.Unix(0, 0)); dec.Action != ActionForward {
		t.Errorf("link-local unicast between untrusted peers dropped: %s", dec.Reason)
	}
	// A strict device reaching a global IPv6 address is Internet-bound.
	key.DstIP = netip.MustParseAddr("2001:4860:4860::8888")
	key.DstMAC = gwMAC
	if dec := ctrl.PacketIn(key, time.Unix(0, 0)); dec.Action != ActionDrop {
		t.Errorf("strict device reached global IPv6: %s", dec.Reason)
	}
	// Unique-local space counts as local too.
	key.DstIP = netip.MustParseAddr("fd00::42")
	key.DstMAC = devB
	if dec := ctrl.PacketIn(key, time.Unix(0, 0)); dec.Action != ActionForward {
		t.Errorf("unique-local dropped: %s", dec.Reason)
	}
}

// TestRuleCacheKeysOnMAC pins that a rule is stored under its MAC, not
// under the MAC's hash: over many random MACs, Get, peek and Remove
// touch only that MAC's own rule.
func TestRuleCacheKeysOnMAC(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewPCG(7, 39))
	c := NewRuleCache()
	macs := make([]packet.MAC, 0, n)
	seen := make(map[packet.MAC]bool, n)
	for len(macs) < n {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], rng.Uint64())
		m := packet.MAC(b[:6])
		if seen[m] {
			continue
		}
		seen[m] = true
		macs = append(macs, m)
		c.Put(&EnforcementRule{DeviceMAC: m, Level: Strict})
	}
	if c.Len() != n {
		t.Fatalf("Len %d after %d distinct Puts", c.Len(), n)
	}
	for _, m := range macs {
		if r, ok := c.Get(m); !ok || r.DeviceMAC != m {
			t.Fatalf("Get(%v) = %v, %v", m, r, ok)
		}
		if v := c.peek(m); v == 0 || v != c.rules[m.Word()].version {
			t.Fatalf("peek(%v) = %d, its rule's version %d", m, v, c.rules[m.Word()].version)
		}
	}
	for _, m := range macs[:n/2] {
		if !c.Remove(m) {
			t.Fatalf("Remove(%v) found no rule", m)
		}
	}
	for i, m := range macs {
		r, ok := c.Get(m)
		switch {
		case i < n/2 && ok:
			t.Fatalf("Get(%v) after its Remove = %v", m, r)
		case i >= n/2 && (!ok || r.DeviceMAC != m):
			t.Fatalf("Get(%v) after other MACs' Removes = %v, %v", m, r, ok)
		}
	}
	if hits, misses := c.Stats(); hits != n+n/2 || misses != n/2 {
		t.Fatalf("Stats = %d hits, %d misses; want %d, %d", hits, misses, n+n/2, n/2)
	}
}

// TestStripeIsPartition pins a port's stripe to the top six bits of its
// MAC's partition, the field packet's TestPartitionNests nests inside
// the capture rings: a stripe's devices come from one reader.
func TestStripeIsPartition(t *testing.T) {
	tbl := NewFlowTable(0)
	for i := 0; i < 1000; i++ {
		w := packet.MAC{0x02, 0xaa, 0, 0, byte(i >> 8), byte(i)}.Word()
		if tbl.stripe(w) != &tbl.stripes[w.Part(64-6)] {
			t.Fatalf("MAC word %#x off its partition's stripe", uint64(w))
		}
	}
}
