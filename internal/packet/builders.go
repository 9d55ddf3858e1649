package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Builders produce structured packets for common setup-phase exchanges.
// The device traffic generator composes these; each builder sets Size
// from the layout Marshal allocates by (frameLen), so Size is the wire
// length without a frame being built.

// finish sets p's Size and recomputes the recognized application
// protocol. A packet Marshal would refuse keeps Size 0; callers that need
// raw bytes use Marshal.
func finish(p *Packet) *Packet {
	p.App = classifyApp(p.Transport, p.SrcPort, p.DstPort)
	if n, err := p.frameLen(); err == nil {
		p.Size = n
	}
	return p
}

// NewARP builds an ARP request from src probing for target.
func NewARP(srcMAC MAC, srcIP, target netip.Addr) *Packet {
	return finish(&Packet{
		Link:   LinkARP,
		SrcMAC: srcMAC,
		DstMAC: MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		SrcIP:  srcIP,
		DstIP:  target,
	})
}

// NewLLC builds an 802.2 LLC frame (e.g. spanning-tree chatter).
func NewLLC(srcMAC, dstMAC MAC, payload []byte) *Packet {
	return finish(&Packet{
		Link:    LinkLLC,
		SrcMAC:  srcMAC,
		DstMAC:  dstMAC,
		Payload: payload,
	})
}

// NewEAPoL builds an EAPoL key frame, as seen during WPA2 association.
func NewEAPoL(srcMAC, dstMAC MAC, keyLen int) *Packet {
	return finish(&Packet{
		Link:    LinkEthernet,
		Network: NetEAPoL,
		SrcMAC:  srcMAC,
		DstMAC:  dstMAC,
		Payload: make([]byte, keyLen),
	})
}

// NewUDP builds a UDP datagram.
func NewUDP(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	return finish(&Packet{
		Link:      LinkEthernet,
		Network:   netFor(srcIP),
		SrcMAC:    srcMAC,
		DstMAC:    dstMAC,
		SrcIP:     srcIP,
		DstIP:     dstIP,
		Transport: TransportUDP,
		SrcPort:   srcPort,
		DstPort:   dstPort,
		Payload:   payload,
	})
}

// NewTCP builds a TCP segment.
func NewTCP(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	return finish(&Packet{
		Link:      LinkEthernet,
		Network:   netFor(srcIP),
		SrcMAC:    srcMAC,
		DstMAC:    dstMAC,
		SrcIP:     srcIP,
		DstIP:     dstIP,
		Transport: TransportTCP,
		SrcPort:   srcPort,
		DstPort:   dstPort,
		Payload:   payload,
	})
}

// NewICMPEcho builds an ICMP echo request.
func NewICMPEcho(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr, payloadLen int) *Packet {
	n := NetICMP
	if srcIP.Is6() && !srcIP.Is4In6() {
		n = NetICMPv6
	}
	return finish(&Packet{
		Link:    LinkEthernet,
		Network: n,
		SrcMAC:  srcMAC,
		DstMAC:  dstMAC,
		SrcIP:   srcIP,
		DstIP:   dstIP,
		Payload: make([]byte, payloadLen),
	})
}

// NewDHCPDiscover builds the broadcast DHCP DISCOVER a device sends when
// it first joins the network. A hostname DHCPMessage.Marshal refuses
// gives a packet of Size 0 that Marshal refuses too.
func NewDHCPDiscover(srcMAC MAC, xid uint32, hostname string) *Packet {
	return newDHCP(&DHCPMessage{
		Op:        1,
		XID:       xid,
		ClientMAC: srcMAC,
		MsgType:   DHCPDiscover,
		Hostname:  hostname,
		ParamList: []uint8{1, 3, 6, 15},
	})
}

// NewDHCPRequest builds the DHCP REQUEST confirming an offered address,
// of Size 0 like NewDHCPDiscover for a hostname Marshal refuses.
func NewDHCPRequest(srcMAC MAC, xid uint32, requested netip.Addr, hostname string) *Packet {
	return newDHCP(&DHCPMessage{
		Op:          1,
		XID:         xid,
		ClientMAC:   srcMAC,
		MsgType:     DHCPRequest,
		Hostname:    hostname,
		RequestedIP: requested,
		ParamList:   []uint8{1, 3, 6, 15},
	})
}

// newDHCP is msg broadcast from its client. A message that does not
// encode gives a packet with no link layer: Size 0, and Marshal fails.
func newDHCP(msg *DHCPMessage) *Packet {
	payload, err := msg.Marshal()
	if err != nil {
		return &Packet{SrcMAC: msg.ClientMAC}
	}
	return NewUDP(msg.ClientMAC, MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		netip.AddrFrom4([4]byte{0, 0, 0, 0}),
		netip.AddrFrom4([4]byte{255, 255, 255, 255}),
		PortDHCPCli, PortDHCPSrv, payload)
}

// NewDNSQuery builds a DNS A-record query to the given resolver.
func NewDNSQuery(srcMAC, dstMAC MAC, srcIP, resolver netip.Addr, srcPort uint16, name string) (*Packet, error) {
	msg := DNSMessage{
		ID:        uint16(srcPort) ^ 0x2a2a,
		Questions: []DNSQuestion{{Name: name, Type: DNSTypeA, Class: 1}},
	}
	payload, err := msg.Marshal()
	if err != nil {
		return nil, fmt.Errorf("dns query: %w", err)
	}
	return NewUDP(srcMAC, dstMAC, srcIP, resolver, srcPort, PortDNS, payload), nil
}

// NewMDNSQuery builds a multicast DNS query (RFC 6762) to 224.0.0.251.
func NewMDNSQuery(srcMAC MAC, srcIP netip.Addr, name string) (*Packet, error) {
	msg := DNSMessage{
		Questions: []DNSQuestion{{Name: name, Type: DNSTypePTR, Class: 1}},
	}
	payload, err := msg.Marshal()
	if err != nil {
		return nil, fmt.Errorf("mdns query: %w", err)
	}
	return NewUDP(srcMAC, MAC{0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb},
		srcIP, netip.AddrFrom4([4]byte{224, 0, 0, 251}),
		PortMDNS, PortMDNS, payload), nil
}

// NewSSDPSearch builds an SSDP M-SEARCH multicast discovery datagram.
func NewSSDPSearch(srcMAC MAC, srcIP netip.Addr, srcPort uint16, searchTarget string) *Packet {
	payload := []byte("M-SEARCH * HTTP/1.1\r\n" +
		"HOST: 239.255.255.250:1900\r\n" +
		"MAN: \"ssdp:discover\"\r\n" +
		"MX: 3\r\n" +
		"ST: " + searchTarget + "\r\n\r\n")
	return NewUDP(srcMAC, MAC{0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa},
		srcIP, netip.AddrFrom4([4]byte{239, 255, 255, 250}),
		srcPort, PortSSDP, payload)
}

// NewNTPRequest builds an SNTP client request (RFC 4330).
func NewNTPRequest(srcMAC, dstMAC MAC, srcIP, server netip.Addr, srcPort uint16) *Packet {
	payload := make([]byte, 48)
	payload[0] = 0x1b // LI=0, VN=3, Mode=3 (client)
	binary.BigEndian.PutUint32(payload[40:44], 0x83aa7e80)
	return NewUDP(srcMAC, dstMAC, srcIP, server, srcPort, PortNTP, payload)
}

// NewHTTPGet builds a minimal HTTP GET request segment.
func NewHTTPGet(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr, srcPort uint16, host, path string) *Packet {
	payload := []byte("GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n")
	return NewTCP(srcMAC, dstMAC, srcIP, dstIP, srcPort, PortHTTP, payload)
}

// NewTLSClientHello builds a sketch of a TLS ClientHello over port 443:
// correct record framing with an opaque body, which is all the
// payload-agnostic fingerprint ever sees.
func NewTLSClientHello(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr, srcPort uint16, bodyLen int) *Packet {
	payload := make([]byte, 5+bodyLen)
	payload[0] = 0x16 // handshake
	payload[1] = 0x03 // TLS 1.2
	payload[2] = 0x03
	binary.BigEndian.PutUint16(payload[3:5], uint16(bodyLen))
	return NewTCP(srcMAC, dstMAC, srcIP, dstIP, srcPort, PortHTTPS, payload)
}

// NewTCPSyn builds a bare SYN-like segment with no payload.
func NewTCPSyn(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr, srcPort, dstPort uint16) *Packet {
	return NewTCP(srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, nil)
}

func netFor(a netip.Addr) NetworkProto {
	if a.Is6() && !a.Is4In6() {
		return NetIPv6
	}
	return NetIPv4
}
