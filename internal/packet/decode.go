package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// MaxFrameLen is the longest frame Decode accepts: four times the
// largest pcap snap length, and the bound that lets a packed feature
// symbol hold any decoded frame's size (features.MaxSize equals it).
const MaxFrameLen = 1<<20 - 1

// Decode parses a raw Ethernet frame into a Packet. It understands the
// link, network and transport protocols of Table I; unknown payload is
// preserved verbatim. The returned Packet's Size is the frame length,
// and the Packet owns its Payload: it stays valid after frame is
// reused. Decode is DecodeInto plus that copy.
func Decode(frame []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, frame); err != nil {
		return nil, err
	}
	p.Payload = clone(p.Payload)
	return p, nil
}

// DecodeInto parses frame into *p, overwriting every field, without
// allocating: p.Payload is a sub-slice of frame, so *p is valid only as
// long as frame's bytes are (the capture readers decode each frame in
// place out of the ring block this way). On error *p is unspecified.
func DecodeInto(p *Packet, frame []byte) error {
	if len(frame) < ethHeaderLen {
		return fmt.Errorf("decode: frame of %d bytes shorter than ethernet header", len(frame))
	}
	if len(frame) > MaxFrameLen {
		return fmt.Errorf("decode: frame of %d bytes exceeds %d", len(frame), MaxFrameLen)
	}
	*p = Packet{Size: len(frame)}
	copy(p.DstMAC[:], frame[0:6])
	copy(p.SrcMAC[:], frame[6:12])
	etherType := binary.BigEndian.Uint16(frame[12:14])
	body := frame[ethHeaderLen:]

	switch {
	case etherType <= 1500:
		return decodeLLC(p, body)
	case etherType == EtherTypeARP:
		return decodeARP(p, body)
	case etherType == EtherTypeEAPoL:
		return decodeEAPoL(p, body)
	case etherType == EtherTypeIPv4:
		p.Link = LinkEthernet
		return decodeIPv4(p, body)
	case etherType == EtherTypeIPv6:
		p.Link = LinkEthernet
		return decodeIPv6(p, body)
	default:
		return fmt.Errorf("decode: unsupported ethertype 0x%04x", etherType)
	}
}

func decodeLLC(p *Packet, body []byte) error {
	if len(body) < llcHeaderLen {
		return fmt.Errorf("decode llc: truncated header (%d bytes)", len(body))
	}
	p.Link = LinkLLC
	p.Payload = body[llcHeaderLen:]
	return nil
}

func decodeARP(p *Packet, body []byte) error {
	if len(body) < arpBodyLen {
		return fmt.Errorf("decode arp: truncated body (%d bytes)", len(body))
	}
	p.Link = LinkARP
	p.SrcIP = addr4(body[14:18])
	p.DstIP = addr4(body[24:28])
	return nil
}

func decodeEAPoL(p *Packet, body []byte) error {
	if len(body) < eapolHdrLen {
		return fmt.Errorf("decode eapol: truncated header (%d bytes)", len(body))
	}
	p.Link = LinkEthernet
	p.Network = NetEAPoL
	n := int(binary.BigEndian.Uint16(body[2:4]))
	rest := body[eapolHdrLen:]
	if n > len(rest) {
		n = len(rest)
	}
	p.Payload = rest[:n]
	return nil
}

func decodeIPv4(p *Packet, body []byte) error {
	if len(body) < ipv4HeaderLen {
		return fmt.Errorf("decode ipv4: truncated header (%d bytes)", len(body))
	}
	if body[0]>>4 != 4 {
		return fmt.Errorf("decode ipv4: version %d", body[0]>>4)
	}
	ihl := int(body[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || ihl > len(body) {
		return fmt.Errorf("decode ipv4: bad IHL %d", ihl)
	}
	total := int(binary.BigEndian.Uint16(body[2:4]))
	if total < ihl || total > len(body) {
		return fmt.Errorf("decode ipv4: bad total length %d (have %d)", total, len(body))
	}
	p.Network = NetIPv4
	p.SrcIP = addr4(body[12:16])
	p.DstIP = addr4(body[16:20])
	p.IPOpts = decodeIPv4Options(body[ipv4HeaderLen:ihl])
	return decodeIPPayload(p, body[9], body[ihl:total])
}

func decodeIPv4Options(opts []byte) IPv4Options {
	var out IPv4Options
	for i := 0; i < len(opts); {
		switch opts[i] {
		case 0: // EOOL / padding
			out.Padding = true
			i++
		case 1: // NOP
			i++
		case 148: // router alert
			out.RouterAlert = true
			if i+1 < len(opts) && int(opts[i+1]) >= 2 {
				i += int(opts[i+1])
			} else {
				i = len(opts)
			}
		default:
			if i+1 < len(opts) && int(opts[i+1]) >= 2 {
				i += int(opts[i+1])
			} else {
				i = len(opts)
			}
		}
	}
	return out
}

func decodeIPv6(p *Packet, body []byte) error {
	if len(body) < ipv6HeaderLen {
		return fmt.Errorf("decode ipv6: truncated header (%d bytes)", len(body))
	}
	if body[0]>>4 != 6 {
		return fmt.Errorf("decode ipv6: version %d", body[0]>>4)
	}
	payloadLen := int(binary.BigEndian.Uint16(body[4:6]))
	rest := body[ipv6HeaderLen:]
	if payloadLen > len(rest) {
		return fmt.Errorf("decode ipv6: payload length %d exceeds %d", payloadLen, len(rest))
	}
	p.Network = NetIPv6
	p.SrcIP = addr16(body[8:24])
	p.DstIP = addr16(body[24:40])
	next, seg, err := skipIPv6Extensions(body[6], rest[:payloadLen])
	if err != nil {
		return err
	}
	return decodeIPPayload(p, next, seg)
}

// skipIPv6Extensions walks the hop-by-hop, routing, destination-options
// and fragment extension headers to the upper-layer protocol.
func skipIPv6Extensions(next uint8, seg []byte) (uint8, []byte, error) {
	for hops := 0; hops < 8; hops++ {
		switch next {
		case 0, 43, 60: // hop-by-hop, routing, destination options
			if len(seg) < 8 {
				return 0, nil, fmt.Errorf("decode ipv6: truncated extension header %d", next)
			}
			extLen := 8 + int(seg[1])*8
			if extLen > len(seg) {
				return 0, nil, fmt.Errorf("decode ipv6: extension header %d of %d bytes exceeds payload", next, extLen)
			}
			next, seg = seg[0], seg[extLen:]
		case 44: // fragment header: fixed 8 bytes
			if len(seg) < 8 {
				return 0, nil, fmt.Errorf("decode ipv6: truncated fragment header")
			}
			next, seg = seg[0], seg[8:]
		default:
			return next, seg, nil
		}
	}
	return 0, nil, fmt.Errorf("decode ipv6: extension header chain too long")
}

func decodeIPPayload(p *Packet, proto uint8, seg []byte) error {
	switch proto {
	case IPProtoICMP:
		if p.Network == NetIPv4 {
			p.Network = NetICMP
		}
		if len(seg) > icmpHeaderLen {
			p.Payload = seg[icmpHeaderLen:]
		}
		return nil
	case IPProtoICMPv6:
		if p.Network == NetIPv6 {
			p.Network = NetICMPv6
		}
		if len(seg) > icmpHeaderLen {
			p.Payload = seg[icmpHeaderLen:]
		}
		return nil
	case IPProtoTCP:
		if len(seg) < tcpHeaderLen {
			return fmt.Errorf("decode tcp: truncated header (%d bytes)", len(seg))
		}
		p.Transport = TransportTCP
		p.SrcPort = binary.BigEndian.Uint16(seg[0:2])
		p.DstPort = binary.BigEndian.Uint16(seg[2:4])
		off := int(seg[12]>>4) * 4
		if off < tcpHeaderLen || off > len(seg) {
			return fmt.Errorf("decode tcp: bad data offset %d", off)
		}
		p.Payload = seg[off:]
	case IPProtoUDP:
		if len(seg) < udpHeaderLen {
			return fmt.Errorf("decode udp: truncated header (%d bytes)", len(seg))
		}
		p.Transport = TransportUDP
		p.SrcPort = binary.BigEndian.Uint16(seg[0:2])
		p.DstPort = binary.BigEndian.Uint16(seg[2:4])
		p.Payload = seg[udpHeaderLen:]
	default:
		p.Payload = seg
		return nil
	}
	p.App = classifyApp(p.Transport, p.SrcPort, p.DstPort)
	return nil
}

func addr4(b []byte) netip.Addr {
	var a [4]byte
	copy(a[:], b)
	return netip.AddrFrom4(a)
}

func addr16(b []byte) netip.Addr {
	var a [16]byte
	copy(a[:], b)
	return netip.AddrFrom16(a)
}

func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
