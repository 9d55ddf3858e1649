package devices

import (
	"math/rand"
	"net/netip"
	"time"

	"iotsentinel/internal/packet"
)

// WithResponses returns a copy of the capture with plausible response
// frames interleaved after the device's packets: DHCP offers/acks, DNS
// answers, NTP replies, TCP acknowledgements and TLS server responses.
// Real captures always contain both directions; the fingerprinting
// pipeline must filter to the device's own frames by source MAC, and
// bidirectional pcaps exercise exactly that path.
func (c *Capture) WithResponses(rng *rand.Rand) Capture {
	out := Capture{Type: c.Type, MAC: c.MAC}
	gwMAC := GatewayMAC()
	for i, pk := range c.Packets {
		out.Packets = append(out.Packets, pk)
		out.Times = append(out.Times, c.Times[i])
		resp := responseFor(pk, gwMAC)
		if resp == nil {
			continue
		}
		// Responses arrive 1..20 ms after the request.
		out.Packets = append(out.Packets, resp)
		out.Times = append(out.Times,
			c.Times[i].Add(time.Duration(1+rng.Intn(20))*time.Millisecond))
	}
	return out
}

// responseFor synthesizes the counterpart frame for a device packet, or
// nil when the exchange has no reply (broadcast chatter, EAPoL, LLC).
func responseFor(pk *packet.Packet, gwMAC packet.MAC) *packet.Packet {
	switch {
	case pk.App == packet.AppDHCP && pk.Transport == packet.TransportUDP:
		// The gateway's DHCP server answers discover/request with
		// offer/ack addressed to the client.
		msg, err := packet.ParseDHCP(pk.Payload)
		if err != nil {
			return nil
		}
		reply := packet.DHCPMessage{
			Op:        2,
			XID:       msg.XID,
			ClientMAC: msg.ClientMAC,
			YourIP:    gatewayOfferIP(msg),
			ServerIP:  gatewayIP(),
			MsgType:   packet.DHCPOffer,
		}
		if msg.MsgType == packet.DHCPRequest {
			reply.MsgType = packet.DHCPAck
		}
		payload, err := reply.Marshal()
		if err != nil {
			return nil
		}
		return packet.NewUDP(gwMAC, pk.SrcMAC, gatewayIP(), reply.YourIP,
			packet.PortDHCPSrv, packet.PortDHCPCli, payload)
	case pk.App == packet.AppDNS && pk.Transport == packet.TransportUDP:
		q, err := packet.ParseDNS(pk.Payload)
		if err != nil || len(q.Questions) == 0 {
			return nil
		}
		resp := packet.DNSMessage{ID: q.ID, Response: true,
			Questions: q.Questions, Answers: 1}
		payload, err := resp.Marshal()
		if err != nil {
			return nil
		}
		return packet.NewUDP(gwMAC, pk.SrcMAC, pk.DstIP, pk.SrcIP,
			pk.DstPort, pk.SrcPort, payload)
	case pk.App == packet.AppNTP:
		return packet.NewUDP(gwMAC, pk.SrcMAC, pk.DstIP, pk.SrcIP,
			pk.DstPort, pk.SrcPort, make([]byte, 48))
	case pk.Transport == packet.TransportTCP:
		// Server-side segment: SYN-ACK for empty segments, a data
		// response for requests.
		respLen := 0
		if pk.HasRawData() {
			respLen = 2 * len(pk.Payload)
			if respLen > 1400 {
				respLen = 1400
			}
		}
		return packet.NewTCP(gwMAC, pk.SrcMAC, pk.DstIP, pk.SrcIP,
			pk.DstPort, pk.SrcPort, make([]byte, respLen))
	case pk.Network == packet.NetICMP || pk.Network == packet.NetICMPv6:
		return packet.NewICMPEcho(gwMAC, pk.SrcMAC, pk.DstIP, pk.SrcIP, len(pk.Payload))
	default:
		return nil
	}
}

// gatewayOfferIP picks the address the DHCP server offers: the
// requested address when present, else a default pool address.
func gatewayOfferIP(msg *packet.DHCPMessage) netip.Addr {
	if msg.RequestedIP.Is4() {
		return msg.RequestedIP
	}
	return netip.AddrFrom4([4]byte{192, 168, 1, 100})
}
