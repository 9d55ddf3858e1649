package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// DHCP message types (RFC 2132 option 53).
const (
	DHCPDiscover uint8 = 1
	DHCPOffer    uint8 = 2
	DHCPRequest  uint8 = 3
	DHCPDecline  uint8 = 4
	DHCPAck      uint8 = 5
	DHCPNak      uint8 = 6
	DHCPRelease  uint8 = 7
	DHCPInform   uint8 = 8
)

// DHCP option codes used by the codec.
const (
	dhcpOptPad         uint8 = 0
	dhcpOptRequestedIP uint8 = 50
	dhcpOptMsgType     uint8 = 53
	dhcpOptServerID    uint8 = 54
	dhcpOptParamList   uint8 = 55
	dhcpOptClientID    uint8 = 61
	dhcpOptHostname    uint8 = 12
	dhcpOptEnd         uint8 = 255
)

const (
	dhcpFixedLen = 236
	dhcpCookie   = 0x63825363
)

// DHCPMessage is a decoded BOOTP/DHCP message (RFC 2131).
type DHCPMessage struct {
	Op          uint8 // 1 = BOOTREQUEST, 2 = BOOTREPLY
	XID         uint32
	ClientMAC   MAC
	ClientIP    netip.Addr
	YourIP      netip.Addr
	ServerIP    netip.Addr
	MsgType     uint8 // option 53; 0 when absent (plain BOOTP)
	Hostname    string
	RequestedIP netip.Addr
	ParamList   []uint8
}

// Marshal serializes the DHCP message to its RFC 2131 wire format. A
// hostname or parameter list longer than an option's one-byte length
// holds (255) is refused, not wrapped.
func (m *DHCPMessage) Marshal() ([]byte, error) {
	if len(m.Hostname) > 255 {
		return nil, fmt.Errorf("marshal dhcp: hostname (option 12) of %d bytes exceeds 255", len(m.Hostname))
	}
	if len(m.ParamList) > 255 {
		return nil, fmt.Errorf("marshal dhcp: parameter list (option 55) of %d bytes exceeds 255", len(m.ParamList))
	}
	// Fixed part, cookie, options 53, 12, 50 and 55 at their longest, end.
	n := dhcpFixedLen + 4 + 3 + 2 + len(m.Hostname) + 6 + 2 + len(m.ParamList) + 1
	buf := make([]byte, dhcpFixedLen, n)
	buf[0] = m.Op
	buf[1] = 1 // htype: Ethernet
	buf[2] = 6 // hlen
	binary.BigEndian.PutUint32(buf[4:8], m.XID)
	putAddr4(buf[12:16], m.ClientIP)
	putAddr4(buf[16:20], m.YourIP)
	putAddr4(buf[20:24], m.ServerIP)
	copy(buf[28:34], m.ClientMAC[:])

	buf = binary.BigEndian.AppendUint32(buf, dhcpCookie)

	if m.MsgType != 0 {
		buf = append(buf, dhcpOptMsgType, 1, m.MsgType)
	}
	if m.Hostname != "" {
		buf = append(buf, dhcpOptHostname, uint8(len(m.Hostname)))
		buf = append(buf, m.Hostname...)
	}
	if m.RequestedIP.Is4() {
		ip := m.RequestedIP.As4()
		buf = append(buf, dhcpOptRequestedIP, 4)
		buf = append(buf, ip[:]...)
	}
	if len(m.ParamList) > 0 {
		buf = append(buf, dhcpOptParamList, uint8(len(m.ParamList)))
		buf = append(buf, m.ParamList...)
	}
	buf = append(buf, dhcpOptEnd)
	return buf, nil
}

// ParseDHCP decodes a BOOTP/DHCP message from its wire format.
func ParseDHCP(b []byte) (*DHCPMessage, error) {
	if len(b) < dhcpFixedLen {
		return nil, fmt.Errorf("parse dhcp: message of %d bytes shorter than fixed header", len(b))
	}
	m := &DHCPMessage{
		Op:       b[0],
		XID:      binary.BigEndian.Uint32(b[4:8]),
		ClientIP: addr4(b[12:16]),
		YourIP:   addr4(b[16:20]),
		ServerIP: addr4(b[20:24]),
	}
	copy(m.ClientMAC[:], b[28:34])
	rest := b[dhcpFixedLen:]
	if len(rest) < 4 || binary.BigEndian.Uint32(rest[:4]) != dhcpCookie {
		// Plain BOOTP without options.
		return m, nil
	}
	rest = rest[4:]
	for len(rest) > 0 {
		code := rest[0]
		if code == dhcpOptEnd {
			break
		}
		if code == dhcpOptPad {
			rest = rest[1:]
			continue
		}
		if len(rest) < 2 {
			return nil, fmt.Errorf("parse dhcp: truncated option %d", code)
		}
		n := int(rest[1])
		if len(rest) < 2+n {
			return nil, fmt.Errorf("parse dhcp: option %d length %d exceeds remaining %d", code, n, len(rest)-2)
		}
		val := rest[2 : 2+n]
		switch code {
		case dhcpOptMsgType:
			if n == 1 {
				m.MsgType = val[0]
			}
		case dhcpOptHostname:
			m.Hostname = string(val)
		case dhcpOptRequestedIP:
			if n == 4 {
				m.RequestedIP = addr4(val)
			}
		case dhcpOptParamList:
			m.ParamList = append([]uint8(nil), val...)
		}
		rest = rest[2+n:]
	}
	return m, nil
}
