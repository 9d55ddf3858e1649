package gateway

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/testutil"
)

// nopAssessor returns a fixed clean assessment so the benchmarks
// measure the gateway data path, not the classifier bank.
type nopAssessor struct{}

func (nopAssessor) Assess(fingerprint.Fingerprint) (iotssp.Assessment, error) {
	return iotssp.Assessment{Type: "bench", Level: sdn.Trusted}, nil
}

func benchGateway(shards, queue int) *Gateway {
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	return New(nopAssessor{}, sw, Config{
		IdleGap:     time.Hour,
		Shards:      shards,
		AssessQueue: queue,
	})
}

// BenchmarkHandlePacketSharded hammers HandlePacket from every
// benchmark goroutine, each on its own stream of device MACs so
// parallel feeders contend only on shared gateway structures — the
// contention the sharding removes.
func BenchmarkHandlePacketSharded(b *testing.B) {
	g := benchGateway(16, 256)
	defer g.Close()
	base := time.Unix(7000, 0)
	var worker atomic.Uint32
	gwIP := netip.MustParseAddr("192.168.1.1")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := byte(worker.Add(1))
		var i uint32
		for pb.Next() {
			i++
			// A fresh MAC every few packets keeps captures short and
			// spreads load across shards.
			mac := packet.MAC{0x02, 0xBE, w, byte(i >> 10), byte(i >> 2), byte(i)}
			pk := packet.NewUDP(mac, packet.MAC{2, 2, 2, 2, 2, 2},
				netip.MustParseAddr("192.168.1.77"), gwIP, 40000+uint16(i%1000), 53, []byte("q"))
			ts := base.Add(time.Duration(i) * time.Microsecond)
			if _, err := g.HandlePacket(ts, pk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// steadyStateDevice runs one device through its full lifecycle — setup
// capture, assessment, enforcement — and returns the gateway plus a
// packet from the now-assessed device whose flow is installed in the
// switch fast path. Repeating that packet is the gateway's steady
// state: every long-lived device on a home network looks like this
// within seconds of joining.
func steadyStateDevice(tb testing.TB) (*Gateway, *packet.Packet, time.Time) {
	tb.Helper()
	g := benchGateway(1, 0)
	mac := packet.MAC{0x02, 0xBE, 1, 2, 3, 4}
	gwIP := netip.MustParseAddr("192.168.1.1")
	devIP := netip.MustParseAddr("192.168.1.77")
	pk := packet.NewUDP(mac, packet.MAC{2, 2, 2, 2, 2, 2}, devIP, gwIP, 40000, 53, []byte("q"))
	base := time.Unix(8000, 0)
	g.HandlePacket(base, pk)
	if err := g.FinishSetup(mac, base.Add(time.Second)); err != nil {
		tb.Fatalf("FinishSetup: %v", err)
	}
	info, ok := g.Device(mac)
	if !ok || info.State != StateAssessed {
		tb.Fatalf("device not assessed: %+v", info)
	}
	ts := base.Add(2 * time.Second)
	if _, err := g.HandlePacket(ts, pk); err != nil { // install the flow
		tb.Fatalf("HandlePacket: %v", err)
	}
	return g, pk, ts
}

// TestHandlePacketSteadyStateZeroAlloc pins the property the benchmark
// above measures: once a device is assessed and its flow installed,
// forwarding its packets allocates nothing — match, stats, monitoring
// and enforcement included.
func TestHandlePacketSteadyStateZeroAlloc(t *testing.T) {
	g, pk, ts := steadyStateDevice(t)
	defer g.Close()
	testutil.AssertZeroAllocs(t, "HandlePacket/assessed-device", func() {
		if _, err := g.HandlePacket(ts, pk); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkHandlePacketSteadyState measures the per-packet cost for an
// assessed device with an installed flow — the path every packet after
// a device's first few seconds takes, and the one that must stay
// allocation-free.
func BenchmarkHandlePacketSteadyState(b *testing.B) {
	g, pk, ts := steadyStateDevice(b)
	defer g.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.HandlePacket(ts, pk); err != nil {
			b.Fatal(err)
		}
	}
}
