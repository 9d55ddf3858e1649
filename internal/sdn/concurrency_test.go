package sdn

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
)

// TestConcurrentSwitchProcessing drives the switch from many goroutines
// while rules change underneath it; run with -race to validate the
// locking discipline of the whole enforcement plane.
func TestConcurrentSwitchProcessing(t *testing.T) {
	ctrl := newTestController()
	sw := NewSwitch(ctrl, time.Minute)
	now := time.Unix(0, 0)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				src := packet.MAC{0x02, byte(w), 0, 0, 0, byte(i % 7)}
				dst := netip.AddrFrom4([4]byte{52, 20, byte(w), byte(i % 250)})
				pk := packet.NewTCPSyn(src, gwMAC, ipA, dst, uint16(30000+i), 443)
				if i%3 == 0 {
					// Device to device: the flow remembers the peer's rule,
					// which the churn below keeps replacing.
					peer := packet.MAC{0x02, byte((w + 1) % 8), 0, 0, 0, byte(i % 7)}
					pk = packet.NewTCPSyn(src, peer, ipA, ipB, uint16(30000+i%5), 443)
				}
				sw.Process(pk, now.Add(time.Duration(i)*time.Millisecond))
			}
		}(w)
	}
	// Concurrent rule churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			mac := packet.MAC{0x02, byte(i % 8), 0, 0, 0, byte(i % 7)}
			ctrl.Rules().Put(&EnforcementRule{DeviceMAC: mac, Level: Trusted})
			sw.InvalidateDevice(mac)
			if i%3 == 0 {
				ctrl.Rules().Remove(mac)
			}
			if i%5 == 0 {
				sw.ForgetDevice(mac)
			}
			_, _ = sw.Device(mac)
		}
		_ = sw.TopTalkers(3)
	}()
	// Concurrent expiry sweeps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			sw.Table().Expire(now.Add(time.Duration(i) * 10 * time.Millisecond))
		}
	}()
	// Concurrent attach/detach of the metrics bundle, and counter
	// snapshots: Process reads the attachment and bumps the counters
	// without a lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		met := NewSwitchMetrics(obs.NewRegistry())
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				sw.SetMetrics(met)
			} else {
				sw.SetMetrics(nil)
			}
			_ = sw.Stats()
		}
	}()
	wg.Wait()

	st := sw.Stats()
	if st.Forwarded+st.Dropped != 8*300 {
		t.Errorf("processed %d packets, want %d", st.Forwarded+st.Dropped, 8*300)
	}
	if st.TableHits+st.PacketIns != 8*300 {
		t.Errorf("%d hits + %d packet-ins, want %d in all", st.TableHits, st.PacketIns, 8*300)
	}
}

func BenchmarkControllerPacketIn(b *testing.B) {
	ctrl := newTestController()
	key := flow(devB, gwMAC, ipB, cloud)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ctrl.PacketIn(key, time.Unix(0, 0))
	}
}

func BenchmarkFlowTableMatch(b *testing.B) {
	ft := NewFlowTable(time.Minute)
	key := flow(devA, devB, ipA, ipB)
	now := time.Unix(0, 0)
	ft.Install(key, ActionForward, now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ft.Match(key, 100, now); !ok {
			b.Fatal("flow missing")
		}
	}
}
