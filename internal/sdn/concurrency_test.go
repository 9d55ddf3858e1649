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
	// Concurrent attach/detach of the metrics bundle, counter snapshots
	// and scrapes: the evictions read the attachment without a lock, and
	// Stats and the series it backs take the stripes Process writes.
	reg := obs.NewRegistry()
	wg.Add(1)
	go func() {
		defer wg.Done()
		met := NewSwitchMetrics(reg)
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				sw.SetMetrics(met)
			} else {
				sw.SetMetrics(nil)
			}
			if st := sw.Stats(); st.Forwarded+st.Dropped != st.TableHits+st.PacketIns {
				t.Errorf("snapshot %+v splits a frame across its counts", st)
			}
			_ = reg.Snapshot()
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
	// One set of counts: the series are the switch's, detached last or not.
	snap := reg.Snapshot()
	for _, c := range []struct {
		name string
		kv   []string
		want uint64
	}{
		{"sdn_switch_packets_total", []string{"action", "forward"}, st.Forwarded},
		{"sdn_switch_packets_total", []string{"action", "drop"}, st.Dropped},
		{"sdn_switch_packet_ins_total", nil, st.PacketIns},
		{"sdn_switch_table_hits_total", nil, st.TableHits},
	} {
		if got := snap.Value(c.name, c.kv...); got != float64(c.want) {
			t.Errorf("%s%v = %v, Stats says %d", c.name, c.kv, got, c.want)
		}
	}
}

// TestDirectTableCallsLeaveSwitchStats: the switch's counts are
// Process's. Install and Match on its table count the frame against its
// device but leave Stats and the series it backs alone.
func TestDirectTableCallsLeaveSwitchStats(t *testing.T) {
	reg := obs.NewRegistry()
	sw := NewSwitch(newTestController(), time.Minute)
	sw.SetMetrics(NewSwitchMetrics(reg))
	now := time.Unix(0, 0)
	pk := packet.NewTCPSyn(devC, gwMAC, ipC, other, 40000, 443)
	sw.Process(pk, now) // a packet-in
	sw.Process(pk, now) // a table hit
	want := SwitchStats{Forwarded: 2, PacketIns: 1, TableHits: 1}
	if st := sw.Stats(); st != want {
		t.Fatalf("after Process = %+v, want %+v", st, want)
	}

	key := flow(devA, devB, ipA, ipB)
	sw.Table().Install(key, ActionDrop, now)
	for i := 0; i < 3; i++ {
		if act, ok := sw.Table().Match(key, 100, now); !ok || act != ActionDrop {
			t.Fatalf("Match = %v, %v", act, ok)
		}
	}
	if _, ok := sw.Table().Match(flow(devB, devA, ipB, ipA), 100, now); ok {
		t.Fatal("an uninstalled flow matched")
	}
	if st := sw.Stats(); st != want {
		t.Errorf("after direct Install and Match = %+v, want %+v", st, want)
	}
	if d, _ := sw.Device(devA); d.Packets != 3 || d.Dropped != 3 {
		t.Errorf("devA = %+v, want its 3 matched frames", d)
	}
	snap := reg.Snapshot()
	if f, h := snap.Value("sdn_switch_packets_total", "action", "forward"), snap.Value("sdn_switch_table_hits_total"); f != 2 || h != 1 {
		t.Errorf("series read %v forwarded and %v hits, want 2 and 1", f, h)
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
