package packet

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestDHCPRoundTrip(t *testing.T) {
	give := DHCPMessage{
		Op:          1,
		XID:         0xdeadbeef,
		ClientMAC:   testSrcMAC,
		MsgType:     DHCPRequest,
		Hostname:    "ikettle-20",
		RequestedIP: netip.AddrFrom4([4]byte{192, 168, 1, 77}),
		ParamList:   []uint8{1, 3, 6, 15, 42},
	}
	raw, err := give.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDHCP(raw)
	if err != nil {
		t.Fatalf("ParseDHCP: %v", err)
	}
	if got.Op != give.Op || got.XID != give.XID || got.ClientMAC != give.ClientMAC {
		t.Errorf("fixed fields mismatch: %+v", got)
	}
	if got.MsgType != give.MsgType {
		t.Errorf("MsgType = %d, want %d", got.MsgType, give.MsgType)
	}
	if got.Hostname != give.Hostname {
		t.Errorf("Hostname = %q, want %q", got.Hostname, give.Hostname)
	}
	if got.RequestedIP != give.RequestedIP {
		t.Errorf("RequestedIP = %v, want %v", got.RequestedIP, give.RequestedIP)
	}
	if len(got.ParamList) != len(give.ParamList) {
		t.Errorf("ParamList = %v, want %v", got.ParamList, give.ParamList)
	}
}

func TestDHCPPlainBOOTP(t *testing.T) {
	give := DHCPMessage{Op: 2, XID: 7, ClientMAC: testSrcMAC,
		YourIP: netip.AddrFrom4([4]byte{10, 0, 0, 2})}
	raw, err := give.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Strip the options area including the magic cookie to simulate a
	// plain BOOTP reply.
	raw = raw[:dhcpFixedLen]
	got, err := ParseDHCP(raw)
	if err != nil {
		t.Fatalf("ParseDHCP: %v", err)
	}
	if got.MsgType != 0 {
		t.Errorf("MsgType = %d, want 0 for plain BOOTP", got.MsgType)
	}
	if got.YourIP != give.YourIP {
		t.Errorf("YourIP = %v, want %v", got.YourIP, give.YourIP)
	}
}

func TestDHCPParseErrors(t *testing.T) {
	if _, err := ParseDHCP(make([]byte, 10)); err == nil {
		t.Error("short message should fail")
	}
	m := DHCPMessage{Op: 1, MsgType: DHCPDiscover}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-option: fixed header + cookie + option code only.
	raw = raw[:dhcpFixedLen+4+1]
	if _, err := ParseDHCP(raw); err == nil {
		t.Error("truncated option should fail")
	}
}

func TestDHCPQuickRoundTrip(t *testing.T) {
	f := func(xid uint32, host string, mac [6]byte) bool {
		if len(host) > 200 {
			host = host[:200]
		}
		// Option length is one byte and zero-length hostnames are not
		// emitted, so normalize.
		give := DHCPMessage{Op: 1, XID: xid, ClientMAC: MAC(mac),
			MsgType: DHCPDiscover, Hostname: host}
		raw, err := give.Marshal()
		if err != nil {
			return false
		}
		got, err := ParseDHCP(raw)
		if err != nil {
			return false
		}
		return got.XID == xid && got.ClientMAC == MAC(mac) && got.Hostname == host
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDHCPOptionLengths: a hostname or parameter list of 255 bytes, the
// most a one-byte option length holds, round-trips; 256 is refused with
// an error naming the option, never written with a wrapped length, and
// the builders then give a packet of Size 0 that Marshal refuses.
func TestDHCPOptionLengths(t *testing.T) {
	for _, n := range []int{255, 256} {
		host := strings.Repeat("h", n)
		params := bytes.Repeat([]byte{42}, n)
		for _, c := range []struct {
			option string
			give   DHCPMessage
		}{
			{"option 12", DHCPMessage{Op: 1, MsgType: DHCPDiscover, Hostname: host}},
			{"option 55", DHCPMessage{Op: 1, MsgType: DHCPDiscover, ParamList: params}},
		} {
			raw, err := c.give.Marshal()
			if n == 256 {
				if err == nil || !strings.Contains(err.Error(), c.option) {
					t.Errorf("%s of %d bytes: err = %v, want a refusal naming it", c.option, n, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s of %d bytes: %v", c.option, n, err)
			}
			got, err := ParseDHCP(raw)
			if err != nil || got.Hostname != c.give.Hostname || !bytes.Equal(got.ParamList, c.give.ParamList) {
				t.Errorf("%s of %d bytes: parsed %+v, %v", c.option, n, got, err)
			}
		}
		for name, pk := range map[string]*Packet{
			"discover": NewDHCPDiscover(testSrcMAC, 7, host),
			"request":  NewDHCPRequest(testSrcMAC, 7, testSrcIP, host),
		} {
			frame, err := pk.Marshal()
			if n == 256 {
				if pk.Size != 0 || err == nil {
					t.Errorf("%s with a %d-byte hostname: Size %d, Marshal error %v", name, n, pk.Size, err)
				}
				continue
			}
			if err != nil || pk.Size != len(frame) {
				t.Fatalf("%s with a %d-byte hostname: Size %d, %d-byte frame, %v", name, n, pk.Size, len(frame), err)
			}
			if got, err := ParseDHCP(pk.Payload); err != nil || got.Hostname != host {
				t.Errorf("%s with a %d-byte hostname: parse %v", name, n, err)
			}
		}
	}
}
