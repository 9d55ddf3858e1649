package gateway

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

// TestConcurrentGatewayOperations hammers every mutating entry point of
// one gateway from parallel goroutines — the data path, forced setup
// completion (single and batch), device removal, the quarantine drain
// and the idle-capture sweep — with an assessor that fails
// intermittently so the quarantine transitions interleave with
// everything else. Run under -race; the invariant checked at the end is
// that every surviving device landed in a legal state.
func TestConcurrentGatewayOperations(t *testing.T) {
	flaky := &flakyAssessor{failures: 40, inner: trainService(t)}
	// Each MAC hears four feeders' packets 10 ms apart, then nothing for
	// 50 ms: the packet after that pause ends the capture on the data
	// path, racing everything below.
	g := newGatewayWithAssessor(flaky, Config{IdleGap: 50 * time.Millisecond})

	base := time.Unix(1000, 0)
	macs := make([]packet.MAC, 8)
	for i := range macs {
		macs[i] = packet.MAC{0x02, 0xAA, 0, 0, 0, byte(i + 1)}
	}
	mkPacket := func(mac packet.MAC, i int) *packet.Packet {
		if i%2 == 0 {
			return packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"),
				netip.MustParseAddr("192.168.1.1"))
		}
		return packet.NewTCPSyn(mac, packet.MAC{2, 2, 2, 2, 2, 2},
			netip.MustParseAddr("192.168.1.9"), netip.MustParseAddr("93.184.216.34"),
			uint16(40000+i), 443)
	}

	const iters = 150
	var wg sync.WaitGroup
	// Packet feeders: every MAC gets traffic from two goroutines so
	// setup completion races against concurrent observation.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mac := macs[(i+w)%len(macs)]
				ts := base.Add(time.Duration(i) * 10 * time.Millisecond)
				if _, err := g.HandlePacket(ts, mkPacket(mac, i)); err != nil {
					t.Errorf("HandlePacket: %v", err)
					return
				}
			}
		}(w)
	}
	// Forced completions racing the data path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = g.FinishSetup(macs[i%len(macs)], base.Add(time.Duration(i)*10*time.Millisecond))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			g.FinishAllSetups(base.Add(time.Duration(i) * 100 * time.Millisecond))
		}
	}()
	// Removal, retry drain, idle sweep and readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/5; i++ {
			g.RemoveDevice(macs[i%len(macs)])
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/5; i++ {
			_, _ = g.RetryQuarantined(base.Add(time.Duration(i) * 50 * time.Millisecond))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/5; i++ {
			g.FinalizeIdleCaptures(base.Add(time.Duration(i) * 50 * time.Millisecond))
			_ = g.Devices()
			g.QuarantineLen()
		}
	}()
	wg.Wait()

	for _, d := range g.Devices() {
		switch d.State {
		case StateMonitoring, StateAssessed, StateQuarantined:
		default:
			t.Errorf("device %v in illegal state %d", d.MAC, d.State)
		}
	}
}
