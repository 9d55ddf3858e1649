package gateway

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
)

// TestShardedGatewayRaceHammer drives the sharded, queue-backed data
// path from 16 goroutines with a deliberately nasty MAC mix — a small
// set of hot "known" devices every worker hammers (maximum same-shard
// contention and capture-finalization races), a stream of fresh MACs
// (constant shard-map growth), and multicast frames (the stateless
// path) — while forced finalization, idle sweeps, removal and the
// quarantine drain run concurrently. Run under -race via `make
// test-race`; the closing invariants check that no device escaped into
// an illegal state and that the queue accounting balanced.
func TestShardedGatewayRaceHammer(t *testing.T) {
	reg := obs.NewRegistry()
	gm := NewMetrics(reg)
	flaky := &flakyAssessor{failures: 60, inner: trainService(t)}
	// Each feeder reaches a given hot device every 24 ms of its own
	// clock, and the feeders' clocks sit 0.9 s apart: whichever packet
	// comes an IdleGap or more after the device's last one ends its
	// capture on the data path.
	g := newGatewayWithAssessor(flaky, Config{
		IdleGap:     24 * time.Millisecond,
		Shards:      8,
		AssessQueue: 4, // tiny on purpose: overflow must drop-oldest, not block or lose state
		Metrics:     gm,
	})
	defer g.Close()

	base := time.Unix(5000, 0)
	hot := make([]packet.MAC, 8)
	for i := range hot {
		hot[i] = packet.MAC{0x02, 0xCC, 0, 0, 0, byte(i + 1)}
	}
	mcast := packet.MAC{0x01, 0x00, 0x5e, 0, 0, 0xfb}
	var fresh atomic.Uint32

	mkPacket := func(worker, i int) *packet.Packet {
		switch i % 4 {
		case 0: // known/hot unicast
			return packet.NewARP(hot[(worker+i)%len(hot)],
				netip.MustParseAddr("192.168.1.9"), netip.MustParseAddr("192.168.1.1"))
		case 1: // fresh MAC, never seen before
			n := fresh.Add(1)
			mac := packet.MAC{0x02, 0xCD, byte(n >> 16), byte(n >> 8), byte(n), 1}
			return packet.NewTCPSyn(mac, packet.MAC{2, 2, 2, 2, 2, 2},
				netip.MustParseAddr("192.168.1.10"), netip.MustParseAddr("93.184.216.34"),
				uint16(40000+i%1000), 443)
		case 2: // multicast: no device state may be created
			return packet.NewUDP(mcast, mcast,
				netip.MustParseAddr("192.168.1.50"), netip.MustParseAddr("224.0.0.251"),
				5353, 5353, []byte("m"))
		default: // hot device again, different protocol
			return packet.NewUDP(hot[(worker*3+i)%len(hot)], packet.MAC{2, 2, 2, 2, 2, 2},
				netip.MustParseAddr("192.168.1.9"), netip.MustParseAddr("192.168.1.1"),
				uint16(30000+i%1000), 53, []byte("q"))
		}
	}

	const workers = 16
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ts := base.Add(time.Duration(w*iters+i) * 3 * time.Millisecond)
				if _, err := g.HandlePacket(ts, mkPacket(w, i)); err != nil {
					t.Errorf("HandlePacket: %v", err)
					return
				}
			}
		}(w)
	}
	// Housekeeping racing the feeders.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			now := base.Add(time.Duration(i) * 20 * time.Millisecond)
			_ = g.FinishSetup(hot[i%len(hot)], now)
			if i%10 == 0 {
				g.FinishAllSetups(now)
			}
			g.FinalizeIdleCaptures(now)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/5; i++ {
			g.RemoveDevice(hot[i%len(hot)])
			_, _ = g.RetryQuarantined(base.Add(time.Duration(i) * 40 * time.Millisecond))
			_ = g.Devices()
			_, _ = g.Device(hot[i%len(hot)])
			g.QuarantineLen()
		}
	}()
	wg.Wait()
	g.WaitAssessIdle()

	if _, ok := g.Device(mcast); ok {
		t.Error("multicast MAC acquired device state")
	}
	for _, d := range g.Devices() {
		switch d.State {
		case StateMonitoring, StateAssessed, StateQuarantined:
		default:
			t.Errorf("device %v in illegal state %d", d.MAC, d.State)
		}
	}
	// Queue accounting must balance once idle: depth gauge back to
	// zero, and every eviction accounted as a quarantined device or a
	// later re-assessment (drops only ever move work, never lose it).
	snap := reg.Snapshot()
	if depth := snap.Value("gateway_assess_queue_depth"); depth != 0 {
		t.Errorf("assess queue depth = %v after drain, want 0", depth)
	}
	checkRecords(t, g)
}
