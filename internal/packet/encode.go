package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Header sizes in bytes.
const (
	ethHeaderLen  = 14
	llcHeaderLen  = 3
	arpBodyLen    = 28
	ipv4HeaderLen = 20
	ipv6HeaderLen = 40
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
	icmpHeaderLen = 8
	eapolHdrLen   = 4
)

// Length-field bounds. An 802.3 length above maxLLCLen is read as an
// EtherType, so it bounds the LLC length, not the field's 16 bits.
const (
	maxLen16  = 0xffff
	maxLLCLen = 1500
)

// frameLen is the length of the frame Marshal writes for p, and fails
// exactly where Marshal fails: the one place a frame's layout is sized.
// The builders set Size from it without serializing anything, and
// Marshal allocates by it. A length that does not fit its wire field
// (IPv4 total length, IPv6 payload length, UDP length, EAPoL body
// length, 802.3 length) is refused: written wrapped, Decode would
// truncate the payload or, for the 802.3 length, misread the frame.
func (p *Packet) frameLen() (int, error) {
	switch p.Link {
	case LinkARP:
		return ethHeaderLen + arpBodyLen, nil
	case LinkLLC:
		n := llcHeaderLen + max(len(p.Payload), 1) // an empty body is one zero byte
		if n > maxLLCLen {
			return 0, fmt.Errorf("marshal llc: 802.3 length %d exceeds %d", n, maxLLCLen)
		}
		return ethHeaderLen + n, nil
	case LinkEthernet:
		// handled below
	default:
		return 0, fmt.Errorf("marshal: unsupported link proto %v", p.Link)
	}

	switch p.Network {
	case NetEAPoL:
		if len(p.Payload) > maxLen16 {
			return 0, fmt.Errorf("marshal eapol: body length %d exceeds %d", len(p.Payload), maxLen16)
		}
		return ethHeaderLen + eapolHdrLen + len(p.Payload), nil
	case NetIPv4, NetICMP:
		if !p.SrcIP.Is4() || !p.DstIP.Is4() {
			return 0, fmt.Errorf("marshal ipv4: non-IPv4 addresses %v -> %v", p.SrcIP, p.DstIP)
		}
		seg, err := p.segmentLen()
		if err != nil {
			return 0, err
		}
		total := ipv4HeaderLen + ipv4OptionsLen(p.IPOpts) + seg
		if total > maxLen16 {
			return 0, fmt.Errorf("marshal ipv4: total length %d exceeds %d", total, maxLen16)
		}
		return ethHeaderLen + total, nil
	case NetIPv6, NetICMPv6:
		if !p.SrcIP.Is6() || p.SrcIP.Is4In6() || !p.DstIP.Is6() || p.DstIP.Is4In6() {
			return 0, fmt.Errorf("marshal ipv6: non-IPv6 addresses %v -> %v", p.SrcIP, p.DstIP)
		}
		seg, err := p.segmentLen()
		if err != nil {
			return 0, err
		}
		if seg > maxLen16 {
			return 0, fmt.Errorf("marshal ipv6: payload length %d exceeds %d", seg, maxLen16)
		}
		return ethHeaderLen + ipv6HeaderLen + seg, nil
	default:
		return 0, fmt.Errorf("marshal: unsupported network proto %v", p.Network)
	}
}

// segmentLen is the length of the transport segment (or ICMP message)
// an IP packet carries.
func (p *Packet) segmentLen() (int, error) {
	switch {
	case p.Network == NetICMP || p.Network == NetICMPv6:
		return icmpHeaderLen + len(p.Payload), nil
	case p.Transport == TransportTCP:
		return tcpHeaderLen + len(p.Payload), nil
	case p.Transport == TransportUDP:
		n := udpHeaderLen + len(p.Payload)
		if n > maxLen16 {
			return 0, fmt.Errorf("marshal udp: length %d exceeds %d", n, maxLen16)
		}
		return n, nil
	case p.Transport == TransportNone:
		return len(p.Payload), nil
	default:
		return 0, fmt.Errorf("marshal: unsupported transport %v", p.Transport)
	}
}

// ipv4OptionsLen is the options area Marshal writes: a router alert
// (4 bytes) and a padding EOOL byte, in whole 32-bit words.
func ipv4OptionsLen(o IPv4Options) int {
	n := 0
	if o.RouterAlert {
		n += 4
	}
	if o.Padding {
		n++
	}
	return (n + 3) &^ 3
}

// Marshal serializes the packet to its wire-format frame. The resulting
// frame round-trips through Decode. Size and App are derived fields and
// are ignored on input; Marshal recomputes checksummed and length fields.
// It allocates the frame, frameLen bytes, and nothing else: every header
// and the payload are written in place.
func (p *Packet) Marshal() ([]byte, error) {
	n, err := p.frameLen()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	copy(buf[0:6], p.DstMAC[:])
	copy(buf[6:12], p.SrcMAC[:])
	typ, b := buf[12:14], buf[ethHeaderLen:]
	switch {
	case p.Link == LinkARP:
		binary.BigEndian.PutUint16(typ, EtherTypeARP)
		putARP(b, p)
	case p.Link == LinkLLC:
		// 802.3 length field: LLC header + body.
		binary.BigEndian.PutUint16(typ, uint16(len(b)))
		b[0] = 0x42 // DSAP: spanning tree, a common LLC user
		b[1] = 0x42 // SSAP
		b[2] = 0x03 // control: unnumbered information
		copy(b[llcHeaderLen:], p.Payload)
	case p.Network == NetEAPoL:
		binary.BigEndian.PutUint16(typ, EtherTypeEAPoL)
		b[0] = 2 // protocol version: 802.1X-2004
		b[1] = 3 // packet type: EAPOL-Key
		binary.BigEndian.PutUint16(b[2:4], uint16(len(p.Payload)))
		copy(b[eapolHdrLen:], p.Payload)
	case p.Network == NetIPv4 || p.Network == NetICMP:
		binary.BigEndian.PutUint16(typ, EtherTypeIPv4)
		putIPv4(b, p)
	default:
		binary.BigEndian.PutUint16(typ, EtherTypeIPv6)
		putIPv6(b, p)
	}
	return buf, nil
}

func putARP(b []byte, p *Packet) {
	binary.BigEndian.PutUint16(b[0:2], 1)             // HTYPE: Ethernet
	binary.BigEndian.PutUint16(b[2:4], EtherTypeIPv4) // PTYPE: IPv4
	b[4] = 6                                          // HLEN
	b[5] = 4                                          // PLEN
	binary.BigEndian.PutUint16(b[6:8], 1)             // OPER: request
	copy(b[8:14], p.SrcMAC[:])                        // SHA
	putAddr4(b[14:18], p.SrcIP)
	// THA (b[18:24]) stays zero: target hardware address unknown.
	putAddr4(b[24:28], p.DstIP)
}

// putIPv4 writes the IPv4 packet that fills b.
func putIPv4(b []byte, p *Packet) {
	ihl := ipv4HeaderLen + ipv4OptionsLen(p.IPOpts)
	b[0] = byte(0x40 | (ihl / 4)) // version 4, IHL in 32-bit words
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	b[8] = 64 // TTL
	b[9] = putSegment(b[ihl:], p)
	putAddr4(b[12:16], p.SrcIP)
	putAddr4(b[16:20], p.DstIP)
	if p.IPOpts.RouterAlert {
		b[20], b[21] = 148, 4 // RFC 2113 router alert, value 0
	}
	// The rest of the options area, the padding EOOL included, is zero.
	binary.BigEndian.PutUint16(b[10:12], ipv4Checksum(b[:ihl]))
}

// putIPv6 writes the IPv6 packet that fills b.
func putIPv6(b []byte, p *Packet) {
	b[0] = 0x60 // version 6
	binary.BigEndian.PutUint16(b[4:6], uint16(len(b)-ipv6HeaderLen))
	b[6] = putSegment(b[ipv6HeaderLen:], p)
	b[7] = 64 // hop limit
	src := p.SrcIP.As16()
	dst := p.DstIP.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
}

// putSegment writes the transport segment (or ICMP message) that fills
// seg and returns its IP protocol number.
func putSegment(seg []byte, p *Packet) uint8 {
	switch p.Network {
	case NetICMP:
		putICMP(seg, p, 8 /* echo request */)
		return IPProtoICMP
	case NetICMPv6:
		putICMP(seg, p, 128 /* echo request */)
		return IPProtoICMPv6
	}
	switch p.Transport {
	case TransportTCP:
		binary.BigEndian.PutUint16(seg[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(seg[2:4], p.DstPort)
		seg[12] = (tcpHeaderLen / 4) << 4 // data offset
		seg[13] = 0x18                    // PSH|ACK
		binary.BigEndian.PutUint16(seg[14:16], 0xffff)
		copy(seg[tcpHeaderLen:], p.Payload)
		return IPProtoTCP
	case TransportUDP:
		binary.BigEndian.PutUint16(seg[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(seg[2:4], p.DstPort)
		binary.BigEndian.PutUint16(seg[4:6], uint16(len(seg)))
		copy(seg[udpHeaderLen:], p.Payload)
		return IPProtoUDP
	default:
		// A bare IP packet (TransportNone, the one other transport
		// frameLen accepts): the payload under an unassigned protocol
		// number.
		copy(seg, p.Payload)
		return 253
	}
}

func putICMP(msg []byte, p *Packet, typ byte) {
	msg[0] = typ
	copy(msg[icmpHeaderLen:], p.Payload)
	binary.BigEndian.PutUint16(msg[2:4], ipv4Checksum(msg))
}

func putAddr4(dst []byte, a netip.Addr) {
	if a.Is4() {
		b := a.As4()
		copy(dst, b[:])
	}
}

// ipv4Checksum computes the RFC 1071 internet checksum over b.
func ipv4Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}
