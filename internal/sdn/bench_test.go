package sdn

import (
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

// The benchmarks here drive the switch through NewSwitch, Process, Stats
// and Table().Len() alone, so that the file drops into another checkout
// for a same-hour reading of it.

func benchMAC(i int) packet.MAC {
	return packet.MAC{0x02, 0xbe, 0, byte(i >> 16), byte(i >> 8), byte(i)}
}

func benchIP(i int) netip.Addr { return netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)}) }

// switch10k is the working set of the SwitchProcess10k benchmarks: a
// switch with 10 000 Trusted devices of 4 flows each installed, and one
// frame per flow, ordered so that a round-robin visits every device
// before any device again. internet frames leave through the gateway;
// peer frames go to another device, so their flows depend on the
// destination's rule as well.
func switch10k(b *testing.B, mode string) (*Switch, []*packet.Packet) {
	const devices, flows = 10000, 4
	cache := NewRuleCache()
	ctrl := NewController(cache, netip.Prefix{})
	ctrl.AddInfrastructure(gwMAC)
	sw := NewSwitch(ctrl, time.Minute)
	pkts := make([]*packet.Packet, 0, devices*flows)
	for f := 0; f < flows; f++ {
		for d := 0; d < devices; d++ {
			if f == 0 {
				cache.Put(&EnforcementRule{DeviceMAC: benchMAC(d), Level: Trusted})
			}
			if mode == "peer" {
				peer := (d + 1 + f) % devices
				pkts = append(pkts, packet.NewTCPSyn(benchMAC(d), benchMAC(peer), benchIP(d), benchIP(peer), uint16(40000+f), 443))
			} else {
				remote := netip.AddrFrom4([4]byte{52, 20, byte(f), 1})
				pkts = append(pkts, packet.NewTCPSyn(benchMAC(d), gwMAC, benchIP(d), remote, uint16(40000+f), 443))
			}
		}
	}
	for _, pk := range pkts {
		sw.Process(pk, time.Unix(0, 0))
	}
	if n := sw.Table().Len(); n != devices*flows {
		b.Fatalf("%d flows installed, want %d", n, devices*flows)
	}
	return sw, pkts
}

// BenchmarkSwitchProcess10k is Switch.Process on the benchmark
// workload's working set (switch10k), visited round-robin so that no
// frame finds its device's state in cache — where
// BenchmarkFlowTableMatch's one hot entry shows nothing.
func BenchmarkSwitchProcess10k(b *testing.B) {
	for _, mode := range []string{"internet", "peer"} {
		b.Run(mode, func(b *testing.B) {
			sw, pkts := switch10k(b, mode)
			now := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sw.Process(pkts[i%len(pkts)], now) != ActionForward {
					b.Fatal("dropped")
				}
			}
		})
	}
}

// BenchmarkSwitchProcess10kParallel is SwitchProcess10k from every
// reader at once, /internet and /peer. Each RunParallel goroutine
// forwards, round-robin, the devices one capture ring of a
// GOMAXPROCS-reader fanout would get (the source MAC's partition, as
// capture.Fanout splits them): no device is sent from two goroutines,
// and since a ring's devices fill port stripes no other ring's take, no
// stripe either. A peer frame also read-locks the rule cache, which every
// goroutine shares, to check its destination's rule.
func BenchmarkSwitchProcess10kParallel(b *testing.B) {
	for _, mode := range []string{"internet", "peer"} {
		b.Run(mode, func(b *testing.B) {
			sw, pkts := switch10k(b, mode)
			rings, shift := packet.Parts(runtime.GOMAXPROCS(0))
			owned := make([][]*packet.Packet, rings)
			for _, pk := range pkts {
				r := pk.SrcMAC.Word().Part(shift)
				owned[r] = append(owned[r], pk)
			}
			var next atomic.Int32
			now := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mine := owned[int(next.Add(1)-1)%rings]
				for i := 0; pb.Next(); i++ {
					if sw.Process(mine[i%len(mine)], now) != ActionForward {
						b.Error("dropped")
						return
					}
				}
			})
		})
	}
}

// BenchmarkSwitchPortScan is one device cycling 65 536 distinct
// 5-tuples — a port scan — and reports how many flows that leaves
// installed.
func BenchmarkSwitchPortScan(b *testing.B) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	pkts := make([]*packet.Packet, 1<<16)
	for i := range pkts {
		pkts[i] = packet.NewTCPSyn(devC, gwMAC, ipC, other, 40000, uint16(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkts[i%len(pkts)], time.Unix(0, int64(i)))
	}
	b.ReportMetric(float64(sw.Table().Len()), "flows")
}

// BenchmarkOneDevice64Flows is the hit path of a device with as many
// live flows as a port holds.
func BenchmarkOneDevice64Flows(b *testing.B) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	pkts := make([]*packet.Packet, 64)
	now := time.Unix(0, 0)
	for i := range pkts {
		pkts[i] = packet.NewTCPSyn(devC, gwMAC, ipC, other, 40000, uint16(i))
		sw.Process(pkts[i], now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkts[i%len(pkts)], now)
	}
	if hits := sw.Stats().TableHits; hits != uint64(b.N) {
		b.Fatalf("%d hits of %d frames", hits, b.N)
	}
}
