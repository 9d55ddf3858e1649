package features

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"iotsentinel/internal/packet"
)

// refCounter is the destination-IP counter as a plain map: the oracle
// the inline table is checked against.
type refCounter struct{ seen map[netip.Addr]int }

func (r *refCounter) reset() { r.seen = make(map[netip.Addr]int) }

func (r *refCounter) counter(p *packet.Packet) int {
	if !p.HasIP() || !p.DstIP.IsValid() {
		return 0
	}
	if c, ok := r.seen[p.DstIP]; ok {
		return c
	}
	c := len(r.seen) + 1
	if c >= MaxDstIPCounter {
		return MaxDstIPCounter
	}
	r.seen[p.DstIP] = c
	return c
}

// TestDstTableMatchesMap drives seeded random packet sequences through
// an Extractor and the map oracle side by side: 0, 1, dstInline,
// dstInline+1 and 300 distinct destinations (IPv4 and IPv6), repeats,
// packets without an IP destination in between, and a Reset part way.
// Every counter must agree.
func TestDstTableMatchesMap(t *testing.T) {
	nonIP := []*packet.Packet{
		packet.NewARP(mac1, ip1, gw),
		packet.NewLLC(mac1, mac2, []byte{1, 2, 3}),
		packet.NewEAPoL(mac1, mac2, 16),
		packet.NewUDP(mac1, mac2, ip1, netip.Addr{}, 40000, 53, nil), // IP, no destination
	}
	for _, distinct := range []int{0, 1, dstInline, dstInline + 1, 300} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("distinct=%d/seed=%d", distinct, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				pool := make([]netip.Addr, distinct)
				for i := range pool {
					if rng.Intn(4) == 0 {
						var b [16]byte
						b[0], b[1], b[14], b[15] = 0x20, 0x01, byte(i>>8), byte(i)
						pool[i] = netip.AddrFrom16(b)
					} else {
						pool[i] = netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(i >> 8), byte(i)})
					}
				}
				var e Extractor
				var ref refCounter
				ref.reset()
				n := 4*distinct + 24
				resetAt := rng.Intn(n)
				for i := 0; i < n; i++ {
					if i == resetAt {
						e.Reset()
						ref.reset()
					}
					var p *packet.Packet
					if distinct == 0 || rng.Intn(5) == 0 {
						p = nonIP[rng.Intn(len(nonIP))]
					} else {
						p = packet.NewUDP(mac1, mac2, ip1, pool[rng.Intn(distinct)], 40000, 443, nil)
					}
					want := ref.counter(p)
					if got := e.Extract(p).Vector()[FeatDstIPCounter]; got != float64(want) {
						t.Fatalf("packet %d (dst %v): counter %v, oracle %d", i, p.DstIP, got, want)
					}
				}
			})
		}
	}
}
