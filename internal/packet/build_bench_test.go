package packet_test

import (
	"net/netip"
	"testing"

	"iotsentinel/internal/packet"
)

// The builder and Marshal benchmarks use only the exported API, so this
// file drops into an older commit for a before/after pair.

var (
	benchSrc = packet.MAC{0x02, 0, 0, 0, 0, 1}
	benchDst = packet.MAC{0x02, 0, 0, 0, 0, 2}
	benchIP1 = netip.AddrFrom4([4]byte{192, 168, 1, 10})
	benchIP2 = netip.AddrFrom4([4]byte{52, 1, 2, 3})
)

// BenchmarkNewTCP builds, and so sizes, one 200-byte-payload TCP
// segment per op: what the device generator pays per cloud packet.
func BenchmarkNewTCP(b *testing.B) {
	payload := make([]byte, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pk := packet.NewTCP(benchSrc, benchDst, benchIP1, benchIP2, 40000, 443, payload); pk.Size == 0 {
			b.Fatal("unsized packet")
		}
	}
}

// BenchmarkMarshalTCP serializes that segment to its frame.
func BenchmarkMarshalTCP(b *testing.B) {
	pk := packet.NewTCP(benchSrc, benchDst, benchIP1, benchIP2, 40000, 443, make([]byte, 200))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}
