package packet

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
)

// withOpts gives p IPv4 options (no builder takes any) and re-sizes it.
func withOpts(p *Packet, o IPv4Options) *Packet {
	p.IPOpts = o
	p.Size = 0
	return finish(p)
}

// TestBuilderSizeIsFrameLength pins every builder's Size to the frame
// Marshal writes: equal, or Size 0 where Marshal fails.
func TestBuilderSizeIsFrameLength(t *testing.T) {
	dnsQuery, err := NewDNSQuery(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40001, "cloud.example.com")
	if err != nil {
		t.Fatal(err)
	}
	mdnsQuery, err := NewMDNSQuery(testSrcMAC, testSrcIP, "_hue._tcp.local")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef-payload")
	tests := []struct {
		name     string
		give     *Packet
		wantFail bool
	}{
		{name: "arp", give: NewARP(testSrcMAC, testSrcIP, testDstIP)},
		{name: "llc", give: NewLLC(testSrcMAC, testDstMAC, []byte{0, 0, 0, 2})},
		{name: "llc-empty", give: NewLLC(testSrcMAC, testDstMAC, nil)},
		{name: "eapol", give: NewEAPoL(testSrcMAC, testDstMAC, 95)},
		{name: "icmp-echo", give: NewICMPEcho(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 33)},
		{name: "icmpv6-echo", give: NewICMPEcho(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 33)},
		{name: "tcp4", give: NewTCP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 443, payload)},
		{name: "udp4", give: NewUDP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 9999, payload)},
		{name: "tcp4-router-alert", give: withOpts(NewTCP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 443, payload), IPv4Options{RouterAlert: true})},
		{name: "udp4-padding", give: withOpts(NewUDP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 9999, payload), IPv4Options{Padding: true})},
		{name: "udp4-both-options", give: withOpts(NewUDP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40000, 9999, payload), IPv4Options{Padding: true, RouterAlert: true})},
		{name: "tcp6", give: NewTCP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 40000, 443, payload)},
		{name: "udp6", give: NewUDP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 40000, 9999, payload)},
		{name: "transport-none", give: finish(&Packet{Link: LinkEthernet, Network: NetIPv4, SrcIP: testSrcIP, DstIP: testDstIP, Payload: payload})},
		{name: "dhcp-discover", give: NewDHCPDiscover(testSrcMAC, 7, "device")},
		{name: "dhcp-request", give: NewDHCPRequest(testSrcMAC, 7, testSrcIP, "device")},
		{name: "dns", give: dnsQuery},
		{name: "mdns", give: mdnsQuery},
		{name: "ssdp", give: NewSSDPSearch(testSrcMAC, testSrcIP, 40002, "ssdp:all")},
		{name: "ntp", give: NewNTPRequest(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40003)},
		{name: "http", give: NewHTTPGet(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40004, "cloud.example.com", "/register")},
		{name: "tls", give: NewTLSClientHello(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40005, 180)},
		{name: "tcp-syn", give: NewTCPSyn(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 40006, 80)},
		{name: "mixed-4-6", give: NewUDP(testSrcMAC, testDstMAC, testSrcIP, testDstIP6, 1, 2, nil), wantFail: true},
		{name: "mixed-6-4", give: NewTCP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP, 1, 2, nil), wantFail: true},
		{name: "unknown-link", give: finish(&Packet{Link: LinkProto(9)}), wantFail: true},
		{name: "unknown-network", give: finish(&Packet{Link: LinkEthernet, Network: NetworkProto(9)}), wantFail: true},
		{name: "unknown-transport", give: finish(&Packet{Link: LinkEthernet, Network: NetIPv4, SrcIP: testSrcIP, DstIP: testDstIP, Transport: TransportProto(9)}), wantFail: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame, err := tt.give.Marshal()
			if tt.wantFail {
				if err == nil || tt.give.Size != 0 {
					t.Fatalf("Marshal err %v, Size %d; want an error and Size 0", err, tt.give.Size)
				}
				return
			}
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if tt.give.Size != len(frame) {
				t.Fatalf("Size %d, frame %d bytes", tt.give.Size, len(frame))
			}
		})
	}
}

// TestLengthFieldsRefuseOverflow pins each 16-bit (or 802.3) length
// field Marshal writes: the longest packet that fits round-trips whole,
// one byte more is refused by name instead of wrapped.
func TestLengthFieldsRefuseOverflow(t *testing.T) {
	ra := IPv4Options{RouterAlert: true}
	tcp4 := func(n int) *Packet {
		return NewTCP(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 1, 2, make([]byte, n))
	}
	tests := []struct {
		field string // what the error names
		fits  *Packet
		over  *Packet
	}{
		{field: "ipv4: total length", fits: tcp4(maxLen16 - 40), over: tcp4(maxLen16 - 39)},
		{field: "ipv4: total length",
			fits: withOpts(tcp4(maxLen16-44), ra), over: withOpts(tcp4(maxLen16-43), ra)},
		{field: "ipv6: payload length",
			fits: NewTCP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 1, 2, make([]byte, maxLen16-20)),
			over: NewTCP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 1, 2, make([]byte, maxLen16-19))},
		{field: "ipv6: payload length",
			fits: NewICMPEcho(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, maxLen16-8),
			over: NewICMPEcho(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, maxLen16-7)},
		{field: "udp: length",
			fits: NewUDP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 1, 2, make([]byte, maxLen16-8)),
			over: NewUDP(testSrcMAC, testDstMAC, testSrcIP6, testDstIP6, 1, 2, make([]byte, maxLen16-7))},
		{field: "eapol: body length",
			fits: NewEAPoL(testSrcMAC, testDstMAC, maxLen16), over: NewEAPoL(testSrcMAC, testDstMAC, maxLen16+1)},
		{field: "llc: 802.3 length",
			fits: NewLLC(testSrcMAC, testDstMAC, make([]byte, maxLLCLen-3)),
			over: NewLLC(testSrcMAC, testDstMAC, make([]byte, maxLLCLen-2))},
	}
	for _, tt := range tests {
		t.Run(tt.field, func(t *testing.T) {
			frame, err := tt.fits.Marshal()
			if err != nil {
				t.Fatalf("longest packet that fits: %v", err)
			}
			back, err := Decode(frame)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if tt.fits.Size != len(frame) || back.Size != len(frame) || !bytes.Equal(back.Payload, tt.fits.Payload) {
				t.Fatalf("Size %d / decoded %d / frame %d, payload %d of %d bytes back",
					tt.fits.Size, back.Size, len(frame), len(back.Payload), len(tt.fits.Payload))
			}
			frame, err = tt.over.Marshal()
			if err == nil {
				t.Fatalf("a byte over: Marshal wrote %d bytes", len(frame))
			}
			prefix, name, _ := strings.Cut(tt.field, ": ")
			if msg := err.Error(); !strings.Contains(msg, "marshal "+prefix+":") || !strings.Contains(msg, name) {
				t.Fatalf("a byte over: error %q does not name the %s", msg, tt.field)
			}
			if tt.over.Size != 0 {
				t.Fatalf("a byte over: Size %d, want 0", tt.over.Size)
			}
		})
	}
}

// TestMarshalAllocatesOnce pins the one-buffer layout: the frame is the
// only allocation.
func TestMarshalAllocatesOnce(t *testing.T) {
	payload := make([]byte, 64)
	for _, src := range []netip.Addr{testSrcIP, testSrcIP6} {
		dst := testDstIP
		if src.Is6() {
			dst = testDstIP6
		}
		for _, pk := range []*Packet{
			NewTCP(testSrcMAC, testDstMAC, src, dst, 1, 2, payload),
			NewUDP(testSrcMAC, testDstMAC, src, dst, 1, 2, payload),
			NewICMPEcho(testSrcMAC, testDstMAC, src, dst, 64),
		} {
			if n := testing.AllocsPerRun(100, func() { _, _ = pk.Marshal() }); n != 1 {
				t.Errorf("%v/%v Marshal: %v allocs, want 1", pk.Network, pk.Transport, n)
			}
		}
	}
}

// FuzzMarshalLayout builds packets from fuzzed protocols, address
// families, IPv4 options and payload lengths. frameLen must agree with
// Marshal — the same length, failing on the same packets — and an
// accepted frame must decode to its Size, addresses, ports and payload.
func FuzzMarshalLayout(f *testing.F) {
	f.Add(uint8(LinkEthernet), uint8(NetIPv4), uint8(TransportTCP), uint8(1), uint8(1), uint8(0), uint16(1), uint16(443), []byte("hello"), uint32(0))
	f.Add(uint8(LinkEthernet), uint8(NetIPv6), uint8(TransportUDP), uint8(2), uint8(2), uint8(0), uint16(5353), uint16(5353), []byte{}, uint32(65528))
	f.Add(uint8(LinkEthernet), uint8(NetICMP), uint8(TransportNone), uint8(1), uint8(1), uint8(3), uint16(0), uint16(0), []byte{1, 2}, uint32(65400))
	f.Add(uint8(LinkLLC), uint8(NetNone), uint8(TransportNone), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), []byte{}, uint32(0))
	f.Add(uint8(LinkLLC), uint8(NetNone), uint8(TransportNone), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), []byte{}, uint32(1497))
	f.Add(uint8(LinkEthernet), uint8(NetEAPoL), uint8(TransportNone), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), []byte{9}, uint32(65535))
	f.Add(uint8(LinkARP), uint8(NetNone), uint8(TransportNone), uint8(1), uint8(3), uint8(0), uint16(0), uint16(0), []byte{}, uint32(0))
	addrs := []netip.Addr{{}, testSrcIP, testSrcIP6, netip.MustParseAddr("::ffff:192.168.1.1")}
	f.Fuzz(func(t *testing.T, link, network, transport, srcFam, dstFam, opts uint8,
		srcPort, dstPort uint16, data []byte, extra uint32) {
		p := &Packet{
			Link:      LinkProto(link % 5),
			Network:   NetworkProto(network % 7),
			Transport: TransportProto(transport % 4),
			SrcMAC:    testSrcMAC,
			DstMAC:    testDstMAC,
			SrcIP:     addrs[srcFam%4],
			DstIP:     addrs[dstFam%4],
			IPOpts:    IPv4Options{Padding: opts&1 != 0, RouterAlert: opts&2 != 0},
			SrcPort:   srcPort,
			DstPort:   dstPort,
			Payload:   append(data, make([]byte, extra%(maxLen16+64))...),
		}
		n, lenErr := p.frameLen()
		frame, err := p.Marshal()
		if (lenErr == nil) != (err == nil) {
			t.Fatalf("frameLen err %v, Marshal err %v", lenErr, err)
		}
		if err != nil {
			return
		}
		if n != len(frame) {
			t.Fatalf("frameLen %d, Marshal wrote %d bytes", n, len(frame))
		}
		back, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode of a marshaled %v/%v/%v frame: %v", p.Link, p.Network, p.Transport, err)
		}
		want := Packet{Size: n, Payload: p.Payload}
		switch {
		case p.Link == LinkARP:
			want.Payload = nil
			want.SrcIP, want.DstIP = as4(p.SrcIP), as4(p.DstIP)
		case p.Link == LinkLLC:
			if len(p.Payload) == 0 {
				want.Payload = []byte{0}
			}
		case p.Network == NetEAPoL:
		default:
			want.SrcIP, want.DstIP = p.SrcIP, p.DstIP
			if (p.Network == NetIPv4 || p.Network == NetIPv6) && p.Transport != TransportNone {
				want.SrcPort, want.DstPort = p.SrcPort, p.DstPort
			}
		}
		if back.Size != want.Size || back.SrcIP != want.SrcIP || back.DstIP != want.DstIP ||
			back.SrcPort != want.SrcPort || back.DstPort != want.DstPort {
			t.Fatalf("decoded size %d %v:%d -> %v:%d, want %d %v:%d -> %v:%d",
				back.Size, back.SrcIP, back.SrcPort, back.DstIP, back.DstPort,
				want.Size, want.SrcIP, want.SrcPort, want.DstIP, want.DstPort)
		}
		if !bytes.Equal(back.Payload, want.Payload) {
			t.Fatalf("decoded payload of %d bytes, want %d", len(back.Payload), len(want.Payload))
		}
	})
}

// as4 is the address an ARP body carries: a's four bytes, or 0.0.0.0
// for an address that is not IPv4.
func as4(a netip.Addr) netip.Addr {
	if a.Is4() {
		return a
	}
	return netip.IPv4Unspecified()
}
