package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DNS record types used by the codec.
const (
	DNSTypeA    uint16 = 1
	DNSTypePTR  uint16 = 12
	DNSTypeTXT  uint16 = 16
	DNSTypeAAAA uint16 = 28
	DNSTypeSRV  uint16 = 33
)

// DNSQuestion is a single question entry.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSMessage is a decoded DNS/mDNS message header plus questions. Answer
// records are carried opaque (count only) since the fingerprint never
// inspects them.
type DNSMessage struct {
	ID        uint16
	Response  bool
	Questions []DNSQuestion
	Answers   uint16
}

// Marshal serializes the message (questions only; Answers is emitted as a
// count with no records, which is sufficient for traffic synthesis).
func (m *DNSMessage) Marshal() ([]byte, error) {
	n := 12
	for _, q := range m.Questions {
		n += len(q.Name) + 2 + 4 // a name encodes to at most two bytes more
	}
	buf := make([]byte, 12, n)
	binary.BigEndian.PutUint16(buf[0:2], m.ID)
	if m.Response {
		buf[2] |= 0x80
	}
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:8], m.Answers)
	for _, q := range m.Questions {
		var err error
		if buf, err = appendDNSName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	return buf, nil
}

// ParseDNS decodes a DNS message header and its question section.
func ParseDNS(b []byte) (*DNSMessage, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("parse dns: message of %d bytes shorter than header", len(b))
	}
	m := &DNSMessage{
		ID:       binary.BigEndian.Uint16(b[0:2]),
		Response: b[2]&0x80 != 0,
		Answers:  binary.BigEndian.Uint16(b[6:8]),
	}
	qd := int(binary.BigEndian.Uint16(b[4:6]))
	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := decodeDNSName(b, off)
		if err != nil {
			return nil, err
		}
		off += n
		if off+4 > len(b) {
			return nil, fmt.Errorf("parse dns: truncated question %d", i)
		}
		m.Questions = append(m.Questions, DNSQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[off : off+2]),
			Class: binary.BigEndian.Uint16(b[off+2 : off+4]),
		})
		off += 4
	}
	return m, nil
}

// appendDNSName appends name's wire form to buf: each dot-separated
// label behind its length byte, then a zero byte.
func appendDNSName(buf []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	for rest, more := name, name != ""; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("encode dns name %q: bad label %q", name, label)
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// decodeDNSName reads a (possibly compressed) name starting at off and
// returns the dotted name plus the number of bytes consumed at off.
func decodeDNSName(b []byte, off int) (string, int, error) {
	var (
		labels   []string
		consumed int
		jumped   bool
		pos      = off
		hops     int
	)
	for {
		if pos >= len(b) {
			return "", 0, fmt.Errorf("decode dns name: offset %d out of range", pos)
		}
		c := int(b[pos])
		switch {
		case c == 0:
			if !jumped {
				consumed = pos + 1 - off
			}
			return strings.Join(labels, "."), consumed, nil
		case c&0xc0 == 0xc0:
			if pos+1 >= len(b) {
				return "", 0, fmt.Errorf("decode dns name: truncated pointer at %d", pos)
			}
			if !jumped {
				consumed = pos + 2 - off
				jumped = true
			}
			pos = (c&0x3f)<<8 | int(b[pos+1])
			if hops++; hops > 32 {
				return "", 0, fmt.Errorf("decode dns name: pointer loop")
			}
		default:
			if pos+1+c > len(b) {
				return "", 0, fmt.Errorf("decode dns name: truncated label at %d", pos)
			}
			labels = append(labels, string(b[pos+1:pos+1+c]))
			pos += 1 + c
		}
	}
}
