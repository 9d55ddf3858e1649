package features

import (
	"net/netip"
	"testing"
	"testing/quick"

	"iotsentinel/internal/packet"
)

var (
	mac1 = packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	mac2 = packet.MAC{0x02, 0x66, 0x77, 0x88, 0x99, 0xaa}
	ip1  = netip.AddrFrom4([4]byte{192, 168, 1, 10})
	gw   = netip.AddrFrom4([4]byte{192, 168, 1, 1})
	ext1 = netip.AddrFrom4([4]byte{52, 29, 100, 1})
	ext2 = netip.AddrFrom4([4]byte{52, 29, 100, 2})
)

func TestPortClass(t *testing.T) {
	tests := []struct {
		name    string
		port    uint16
		hasPort bool
		want    int
	}{
		{"none", 0, false, 0},
		{"zero-well-known", 0, true, 1},
		{"http", 80, true, 1},
		{"boundary-1023", 1023, true, 1},
		{"boundary-1024", 1024, true, 2},
		{"registered", 5353, true, 2},
		{"boundary-49151", 49151, true, 2},
		{"boundary-49152", 49152, true, 3},
		{"dynamic", 65535, true, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PortClass(tt.port, tt.hasPort); got != tt.want {
				t.Errorf("PortClass(%d, %v) = %d, want %d", tt.port, tt.hasPort, got, tt.want)
			}
		})
	}
}

func TestExtractDHCP(t *testing.T) {
	p := packet.NewDHCPDiscover(mac1, 1, "dev")
	v := NewExtractor().Extract(p).Vector()
	for idx, want := range map[int]float64{
		FeatIP: 1, FeatUDP: 1, FeatDHCP: 1, FeatBOOTP: 1,
		FeatRawData: 1, FeatSrcPortClass: 1, FeatDstPortClass: 1,
		FeatARP: 0, FeatTCP: 0, FeatHTTP: 0,
	} {
		if v[idx] != want {
			t.Errorf("%s = %v, want %v", Names[idx], v[idx], want)
		}
	}
	if v[FeatSize] <= 0 {
		t.Error("size feature must be positive")
	}
	if v[FeatDstIPCounter] != 1 {
		t.Errorf("dst counter = %v, want 1", v[FeatDstIPCounter])
	}
}

func TestExtractARP(t *testing.T) {
	p := packet.NewARP(mac1, ip1, gw)
	v := NewExtractor().Extract(p).Vector()
	if v[FeatARP] != 1 || v[FeatIP] != 0 || v[FeatDstIPCounter] != 0 {
		t.Errorf("ARP features wrong: arp=%v ip=%v ctr=%v",
			v[FeatARP], v[FeatIP], v[FeatDstIPCounter])
	}
	if v[FeatSrcPortClass] != 0 || v[FeatDstPortClass] != 0 {
		t.Error("ARP must have port class 0")
	}
}

func TestExtractHTTPSAndOptions(t *testing.T) {
	p := packet.NewTLSClientHello(mac1, mac2, ip1, ext1, 49500, 200)
	p.IPOpts = packet.IPv4Options{Padding: true, RouterAlert: true}
	v := NewExtractor().Extract(p).Vector()
	if v[FeatHTTPS] != 1 || v[FeatTCP] != 1 {
		t.Error("HTTPS/TCP bits not set")
	}
	if v[FeatPadding] != 1 || v[FeatRouterAlert] != 1 {
		t.Error("IP option bits not set")
	}
	if v[FeatSrcPortClass] != 3 || v[FeatDstPortClass] != 1 {
		t.Errorf("port classes = %v/%v, want 3/1", v[FeatSrcPortClass], v[FeatDstPortClass])
	}
}

func TestDstIPCounterOrder(t *testing.T) {
	e := NewExtractor()
	mk := func(dst netip.Addr) *packet.Packet {
		return packet.NewUDP(mac1, mac2, ip1, dst, 40000, 9999, nil)
	}
	seq := []netip.Addr{gw, ext1, gw, ext2, ext1}
	want := []float64{1, 2, 1, 3, 2}
	for i, dst := range seq {
		if got := e.Extract(mk(dst)).Vector()[FeatDstIPCounter]; got != want[i] {
			t.Errorf("packet %d counter = %v, want %v", i, got, want[i])
		}
	}
	e.Reset()
	if got := e.Extract(mk(ext2)).Vector()[FeatDstIPCounter]; got != 1 {
		t.Errorf("counter after reset = %v, want 1", got)
	}
}

func TestExtractAll(t *testing.T) {
	pkts := []*packet.Packet{
		packet.NewARP(mac1, ip1, gw),
		packet.NewUDP(mac1, mac2, ip1, gw, 68, 67, []byte{1}),
		packet.NewUDP(mac1, mac2, ip1, ext1, 40000, 123, make([]byte, 48)),
	}
	vs := ExtractAll(pkts)
	if len(vs) != 3 {
		t.Fatalf("len = %d", len(vs))
	}
	if vs[1][FeatDstIPCounter] != 1 || vs[2][FeatDstIPCounter] != 2 {
		t.Errorf("counters = %v, %v", vs[1][FeatDstIPCounter], vs[2][FeatDstIPCounter])
	}
	if vs[2][FeatNTP] != 1 {
		t.Error("NTP bit not set")
	}
}

func TestVectorEqual(t *testing.T) {
	a := NewExtractor().Extract(packet.NewARP(mac1, ip1, gw))
	b := NewExtractor().Extract(packet.NewARP(mac1, ip1, gw))
	if a != b || a.Vector() != b.Vector() {
		t.Error("identical packets must have equal symbols and views")
	}
	cv := b.Vector()
	cv[FeatSize]++
	c, err := Pack(cv)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("symbols differing in size must not be equal")
	}
}

func TestBinaryFeaturesAreBinary(t *testing.T) {
	// Property: for any synthesized packet, every feature except size,
	// counter and port classes is 0 or 1; port classes are in [0,3].
	f := func(srcPort, dstPort uint16, payloadLen uint8, proto uint8) bool {
		var p *packet.Packet
		switch proto % 3 {
		case 0:
			p = packet.NewUDP(mac1, mac2, ip1, ext1, srcPort, dstPort, make([]byte, payloadLen))
		case 1:
			p = packet.NewTCP(mac1, mac2, ip1, ext1, srcPort, dstPort, make([]byte, payloadLen))
		default:
			p = packet.NewICMPEcho(mac1, mac2, ip1, ext1, int(payloadLen))
		}
		v := NewExtractor().Extract(p).Vector()
		for i := 0; i < Count; i++ {
			switch i {
			case FeatSize:
				if v[i] <= 0 {
					return false
				}
			case FeatDstIPCounter:
				if v[i] < 0 {
					return false
				}
			case FeatSrcPortClass, FeatDstPortClass:
				if v[i] < 0 || v[i] > 3 {
					return false
				}
			default:
				if v[i] != 0 && v[i] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
