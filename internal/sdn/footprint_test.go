package sdn

import (
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"iotsentinel/internal/packet"
)

// residentBytes is the heap a switch keeps per resident device after a
// collection: devices ports of flows flows each, spread over dsts
// destinations, installed through Process. It uses the exported API
// alone, so it reads the same figure in another checkout.
func residentBytes(devices, flows, dsts int) float64 {
	sw := NewSwitch(NewController(NewRuleCache(), netip.Prefix{}), time.Minute)
	// One frame, re-addressed per flow: the packets cost nothing.
	pk := packet.NewTCPSyn(benchMAC(0), gwMAC, benchIP(0), netip.Addr{}, 0, 443)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	now := time.Unix(0, 0)
	for d := 0; d < devices; d++ {
		pk.SrcMAC, pk.SrcIP = benchMAC(d), benchIP(d)
		for f := 0; f < flows; f++ {
			pk.DstIP = netip.AddrFrom4([4]byte{52, 20, byte(f % dsts), 1})
			pk.SrcPort = uint16(40000 + f)
			sw.Process(pk, now)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if sw.Table().Len() != devices*flows {
		return -1
	}
	runtime.KeepAlive(sw)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(devices)
}

// TestResidentDeviceFootprint pins what a resident device costs the
// switch, about 15 % above the layout's figure: 10 000 devices of 4
// flows to 3 destinations (524 B on amd64: a 176-byte port, four 80-byte
// entries, a share of the stripe maps; 1 004 B with 128-byte entries and
// a map of destinations per port), and of 6 flows, which the flows'
// growth by halves keeps at 684 B where doubling would hold 844.
func TestResidentDeviceFootprint(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 80 {
		t.Errorf("a flow entry is %d bytes, want at most 80", n)
	}
	if n := unsafe.Sizeof(portStripe{}); n != 64 {
		t.Errorf("a port stripe is %d bytes, want one 64-byte cache line", n)
	}
	for _, c := range []struct{ flows, bound int }{{4, 600}, {6, 790}} {
		got := residentBytes(10000, c.flows, 3)
		t.Logf("%d flows: %.0f B per resident device", c.flows, got)
		if got < 0 || got > float64(c.bound) {
			t.Errorf("%d flows: %.0f B per resident device, bound %d", c.flows, got, c.bound)
		}
	}
}

// TestTransportFitsEntry: every named transport (one String names)
// survives the entry's byte.
func TestTransportFitsEntry(t *testing.T) {
	for p := packet.TransportProto(0); p < 1<<12; p++ {
		if !strings.HasPrefix(p.String(), "transport(") && packet.TransportProto(uint8(p)) != p {
			t.Errorf("transport %v (%d) does not fit an entry's byte", p, int(p))
		}
	}
}

// TestDestinationsMatchMapOracle counts a device's destinations against
// a map at the inline bound's edges and well past it, for IPv4, IPv6 and
// both mixed (an IPv4 address and its IPv4-mapped IPv6 form are two), and
// again after ForgetDevice. Each destination is sent twice, on two ports:
// two misses, one destination.
func TestDestinationsMatchMapOracle(t *testing.T) {
	addr := map[string]func(i int) netip.Addr{
		"v4": func(i int) netip.Addr { return netip.AddrFrom4([4]byte{52, 20, byte(i >> 8), byte(i)}) },
		"v6": func(i int) netip.Addr {
			return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(i >> 8), 15: byte(i)})
		},
		"mixed": func(i int) netip.Addr {
			a := netip.AddrFrom4([4]byte{52, 20, byte(i >> 9), byte(i >> 1)})
			if i%2 == 1 {
				return netip.AddrFrom16(a.As16())
			}
			return a
		},
	}
	for name, dst := range addr {
		sw := NewSwitch(newTestController(), time.Minute)
		for round := 0; round < 2; round++ {
			for _, n := range []int{0, dstInline, dstInline + 1, 300} {
				oracle := make(map[netip.Addr]struct{})
				sw.ForgetDevice(devC)
				sw.Process(packet.NewLLC(devC, gwMAC, nil), time.Unix(0, 0)) // a port without destinations
				for i := 0; i < n; i++ {
					for port := uint16(1); port <= 2; port++ {
						a := dst(i)
						if name == "v4" || name == "mixed" && a.Is4() {
							sw.Process(packet.NewTCPSyn(devC, gwMAC, ipC, a, port, 443), time.Unix(0, 0))
						} else {
							sw.Process(packet.NewTCPSyn(devC, gwMAC, netip.MustParseAddr("fe80::c"), a, port, 443), time.Unix(0, 0))
						}
						oracle[a] = struct{}{}
					}
				}
				if ds, ok := sw.Device(devC); !ok || ds.Destinations != len(oracle) {
					t.Errorf("%s round %d: %d destinations sent, Destinations = %d (tracked %v), oracle %d",
						name, round, n, ds.Destinations, ok, len(oracle))
				}
			}
		}
	}
}

// TestManyDestinationsStayConstantPerMiss: a device contacting 10 000
// addresses keeps dstInline of them inline and the rest in one map, so a
// miss compares at most dstInline addresses and does one map operation.
func TestManyDestinationsStayConstantPerMiss(t *testing.T) {
	sw := NewSwitch(newTestController(), time.Minute)
	pk := packet.NewTCPSyn(devC, gwMAC, ipC, netip.Addr{}, 40000, 443)
	for i := 0; i < 10000; i++ {
		pk.DstIP = netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
		sw.Process(pk, time.Unix(0, int64(i)))
	}
	if ds, _ := sw.Device(devC); ds.Destinations != 10000 {
		t.Errorf("Destinations = %d, want 10000", ds.Destinations)
	}
	st := sw.table.stripe(devC.Word())
	st.mu.Lock()
	defer st.mu.Unlock()
	s := &st.ports[devC.Word()].dsts
	for i, a := range s.inline {
		if !a.IsValid() {
			t.Errorf("inline slot %d empty", i)
		}
	}
	if len(s.spill) != 10000-dstInline {
		t.Errorf("%d destinations spilled, want %d", len(s.spill), 10000-dstInline)
	}
}

// TestEntryKeepsEveryKeyField: keys that differ in one field each are
// distinct flows of one port, and Entry gives each back whole.
func TestEntryKeepsEveryKeyField(t *testing.T) {
	base := packet.FlowKey{SrcMAC: devA, DstMAC: devB, SrcIP: ipA, DstIP: ipB,
		Proto: packet.TransportTCP, SrcPort: 40000, DstPort: 443, Ethertype: packet.EtherTypeIPv4}
	keys := []packet.FlowKey{base}
	for _, vary := range []func(k *packet.FlowKey){
		func(k *packet.FlowKey) { k.DstMAC = devC },
		func(k *packet.FlowKey) { k.SrcIP = ipC },
		func(k *packet.FlowKey) { k.DstIP = cloud },
		func(k *packet.FlowKey) { k.Proto = packet.TransportUDP },
		func(k *packet.FlowKey) { k.SrcPort++ },
		func(k *packet.FlowKey) { k.DstPort++ },
		func(k *packet.FlowKey) { k.Ethertype = packet.EtherTypeIPv6 },
	} {
		k := base
		vary(&k)
		keys = append(keys, k)
	}
	ft := NewFlowTable(time.Minute)
	for i, k := range keys {
		ft.Install(k, Action(1+i%2), time.Unix(int64(i), 0))
	}
	if ft.Len() != len(keys) {
		t.Fatalf("%d keys installed as %d flows", len(keys), ft.Len())
	}
	for i, k := range keys {
		want := FlowEntry{Key: k, Action: Action(1 + i%2), LastUsed: time.Unix(int64(i), 0)}
		if got, ok := ft.Entry(k); !ok || got != want {
			t.Errorf("key %d: Entry = %+v (present %v), want %+v", i, got, ok, want)
		}
	}
}
