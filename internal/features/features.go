// Package features implements the 23-feature packet representation of
// Table I in the IoT Sentinel paper. None of the features depend on
// packet payload content, so extraction works on encrypted traffic.
//
// Feature layout (fixed order, used across the whole pipeline):
//
//	 0 ARP                 link-layer protocol (binary)
//	 1 LLC                 link-layer protocol (binary)
//	 2 IP                  network-layer protocol (binary)
//	 3 ICMP                network-layer protocol (binary)
//	 4 ICMPv6              network-layer protocol (binary)
//	 5 EAPoL               network-layer protocol (binary)
//	 6 TCP                 transport-layer protocol (binary)
//	 7 UDP                 transport-layer protocol (binary)
//	 8 HTTP                application-layer protocol (binary)
//	 9 HTTPS               application-layer protocol (binary)
//	10 DHCP                application-layer protocol (binary)
//	11 BOOTP               application-layer protocol (binary)
//	12 SSDP                application-layer protocol (binary)
//	13 DNS                 application-layer protocol (binary)
//	14 MDNS                application-layer protocol (binary)
//	15 NTP                 application-layer protocol (binary)
//	16 Padding             IPv4 header option (binary)
//	17 RouterAlert         IPv4 header option (binary)
//	18 Size                frame size in bytes (integer)
//	19 RawData             payload present (binary)
//	20 DstIPCounter        per-device destination-IP counter (integer)
//	21 SrcPortClass        port class 0..3 (integer)
//	22 DstPortClass        port class 0..3 (integer)
package features

import (
	"net/netip"

	"iotsentinel/internal/packet"
)

// Count is the number of features per packet (Table I).
const Count = 23

// Feature indices, in the order of Table I.
const (
	FeatARP = iota
	FeatLLC
	FeatIP
	FeatICMP
	FeatICMPv6
	FeatEAPoL
	FeatTCP
	FeatUDP
	FeatHTTP
	FeatHTTPS
	FeatDHCP
	FeatBOOTP
	FeatSSDP
	FeatDNS
	FeatMDNS
	FeatNTP
	FeatPadding
	FeatRouterAlert
	FeatSize
	FeatRawData
	FeatDstIPCounter
	FeatSrcPortClass
	FeatDstPortClass
)

// Names lists the feature names in vector order.
var Names = [Count]string{
	"arp", "llc",
	"ip", "icmp", "icmp6", "eapol",
	"tcp", "udp",
	"http", "https", "dhcp", "bootp", "ssdp", "dns", "mdns", "ntp",
	"ip_opt_padding", "ip_opt_ralert",
	"size", "raw_data",
	"dst_ip_counter",
	"src_port_class", "dst_port_class",
}

// Vector is the float view of one packet's 23 features: what the
// random forests consume and what the JSON formats carry. It is derived
// from a Packed (Packed.Vector); the pipeline itself moves Packed words.
type Vector [Count]float64

// PortClass maps a transport port to the paper's four port classes:
// 0 = no port, 1 = well-known [0,1023], 2 = registered [1024,49151],
// 3 = dynamic [49152,65535].
func PortClass(port uint16, hasPort bool) int {
	switch {
	case !hasPort:
		return 0
	case port <= 1023:
		return 1
	case port <= 49151:
		return 2
	default:
		return 3
	}
}

// dstInline is how many destinations an Extractor keeps in its inline
// table, scanned linearly, before later ones spill to a map. The setup
// captures of the 27-type substrate have at most 8 distinct
// destinations (1 080 captures at each of seeds 1-5), so a join's
// extraction allocates nothing.
const dstInline = 8

// Extractor converts packets to packed feature symbols while tracking
// the per-device destination-IP counter state: the first distinct
// destination address observed maps to 1, the second to 2, and so on
// (destinations past MaxDstIPCounter share that last value; a setup
// capture is bounded well below it). The zero Extractor is ready to
// use. An Extractor is intended for the packets of a single device's
// setup phase; it is not safe for concurrent use.
type Extractor struct {
	// dsts holds the first dstInline destinations; dsts[i] has counter
	// i+1.
	dsts [dstInline]netip.Addr
	// n is the number of distinct destinations counted so far.
	n int
	// spill maps the destinations past the table to their counters.
	spill map[netip.Addr]int
}

// NewExtractor returns an Extractor with empty destination-IP state.
func NewExtractor() *Extractor { return new(Extractor) }

// Reset clears the destination-IP counter state.
func (e *Extractor) Reset() {
	e.n = 0
	clear(e.spill)
}

// Extract maps one packet to its packed symbol, updating counter state.
func (e *Extractor) Extract(p *packet.Packet) Packed {
	var v Packed
	setBool := func(idx int, b bool) {
		if b {
			v |= 1 << idx
		}
	}
	setBool(FeatARP, p.Link == packet.LinkARP)
	setBool(FeatLLC, p.Link == packet.LinkLLC)
	setBool(FeatIP, p.HasIP())
	setBool(FeatICMP, p.Network == packet.NetICMP)
	setBool(FeatICMPv6, p.Network == packet.NetICMPv6)
	setBool(FeatEAPoL, p.Network == packet.NetEAPoL)
	setBool(FeatTCP, p.Transport == packet.TransportTCP)
	setBool(FeatUDP, p.Transport == packet.TransportUDP)
	setBool(FeatHTTP, p.App == packet.AppHTTP)
	setBool(FeatHTTPS, p.App == packet.AppHTTPS)
	// DHCP rides on BOOTP, so a DHCP packet sets both protocol bits;
	// plain BOOTP sets only the BOOTP bit.
	setBool(FeatDHCP, p.App == packet.AppDHCP)
	setBool(FeatBOOTP, p.App == packet.AppDHCP || p.App == packet.AppBOOTP)
	setBool(FeatSSDP, p.App == packet.AppSSDP)
	setBool(FeatDNS, p.App == packet.AppDNS)
	setBool(FeatMDNS, p.App == packet.AppMDNS)
	setBool(FeatNTP, p.App == packet.AppNTP)
	setBool(FeatPadding, p.IPOpts.Padding)
	setBool(FeatRouterAlert, p.IPOpts.RouterAlert)
	setBool(rawDataBit, p.HasRawData())
	// packet.Decode never yields a Size outside the field; the clamp
	// only keeps a hand-built Packet from spilling into its neighbours.
	v |= Packed(min(max(p.Size, 0), MaxSize)) << sizeShift
	v |= Packed(e.dstCounter(p)) << counterShift
	if p.Transport == packet.TransportTCP || p.Transport == packet.TransportUDP {
		v |= Packed(PortClass(p.SrcPort, true)) << srcPortShift
		v |= Packed(PortClass(p.DstPort, true)) << dstPortShift
	}
	return v
}

// ExtractAll maps a packet sequence to the float view of its symbol
// sequence using fresh counter state.
func ExtractAll(pkts []*packet.Packet) []Vector {
	var e Extractor
	out := make([]Vector, len(pkts))
	for i, p := range pkts {
		out[i] = e.Extract(p).Vector()
	}
	return out
}

// dstCounter returns the destination-IP counter for p: 0 when the packet
// has no IP destination, otherwise the 1-based index of the destination
// address in order of first appearance.
func (e *Extractor) dstCounter(p *packet.Packet) int {
	if !p.HasIP() || !p.DstIP.IsValid() {
		return 0
	}
	for i, a := range e.dsts[:min(e.n, dstInline)] {
		if a == p.DstIP {
			return i + 1
		}
	}
	if c, ok := e.spill[p.DstIP]; ok {
		return c
	}
	c := e.n + 1
	if c >= MaxDstIPCounter {
		return MaxDstIPCounter
	}
	e.n = c
	if c <= dstInline {
		e.dsts[c-1] = p.DstIP
		return c
	}
	if e.spill == nil {
		e.spill = make(map[netip.Addr]int)
	}
	e.spill[p.DstIP] = c
	return c
}
