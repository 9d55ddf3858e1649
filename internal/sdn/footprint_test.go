package sdn

import (
	"net/netip"
	"reflect"
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
// switch, a few percent above the layout's figure: 10 000 devices of 4
// flows to 3 destinations (447 B on amd64: a 160-byte port, four 64-byte
// entries, a share of the stripe maps; 524 B with 80-byte entries that
// held netip.Addrs and a rule pointer, 1 004 B with 128-byte entries and
// a map of destinations per port), and of 6 flows, which the flows'
// growth by halves keeps at 575 B where doubling would hold 703.
func TestResidentDeviceFootprint(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 64 {
		t.Errorf("a flow entry is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(portStripe{}); n != 64 {
		t.Errorf("a port stripe is %d bytes, want one 64-byte cache line", n)
	}
	for _, c := range []struct{ flows, bound int }{{4, 460}, {6, 610}} {
		got := residentBytes(10000, c.flows, 3)
		t.Logf("%d flows: %.0f B per resident device", c.flows, got)
		if got < 0 || got > float64(c.bound) {
			t.Errorf("%d flows: %.0f B per resident device, bound %d", c.flows, got, c.bound)
		}
	}
}

// pointerIn is the path to the first pointer a value of type t holds
// ("" for none): a pointer, map, slice, string, interface, channel or
// function anywhere in it, through arrays and struct fields.
func pointerIn(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if p := pointerIn(t.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerIn(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
		return ""
	}
	return " (" + t.String() + ")"
}

// TestSwitchStateHoldsNoPointer: a flow entry and a port's inline
// destination slots hold no pointer — netip.Addr's zone handle is one —
// so a port's flows are memory the collector never scans.
func TestSwitchStateHoldsNoPointer(t *testing.T) {
	var s dstSet
	for _, v := range []any{entry{}, s.inline, s.fams} {
		if p := pointerIn(reflect.TypeOf(v)); p != "" {
			t.Errorf("%T holds a pointer at %s", v, p)
		}
	}
}

// TestAddrKeepsFamily: an address split into its bits and family comes
// back the same netip.Addr, IPv4 and its IPv4-mapped IPv6 form
// apart, and a zone is not kept.
func TestAddrKeepsFamily(t *testing.T) {
	for _, s := range []string{"", "0.0.0.0", "192.168.1.7", "::", "::ffff:192.168.1.7", "fe80::c", "2001:db8::1"} {
		var a netip.Addr
		if s != "" {
			a = netip.MustParseAddr(s)
		}
		b, f := split(a)
		if got := b.ip(f); got != a {
			t.Errorf("%q: split and back gives %v", s, got)
		}
	}
	zoned := netip.MustParseAddr("fe80::c%eth0")
	if b, f := split(zoned); b.ip(f) != zoned.WithZone("") {
		t.Errorf("fe80::c%%eth0: split and back gives %v", b.ip(f))
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
	for i, f := range s.fams {
		if f == noAddr {
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
