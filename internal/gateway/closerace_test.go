package gateway

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

// TestCloseRacingFinishingCaptures hammers HandlePacket with captures
// that finish on every second packet while Close shuts the assessment
// pipeline down underneath them. Whichever side of the async→sync
// switch a finished capture lands on it must be assessed or parked in
// quarantine: a device left monitoring with its capture gone is
// forwarded unenforced for ever (nothing will ever assess it). Run
// under -race (make verify): the switch itself must be race-free.
func TestCloseRacingFinishingCaptures(t *testing.T) {
	gwMAC := packet.MAC{2, 2, 2, 2, 2, 2}
	devIP, gwIP := netip.MustParseAddr("192.168.1.77"), netip.MustParseAddr("192.168.1.1")
	for round := 0; round < 20; round++ {
		g := newGatewayWithAssessor(nopAssessor{}, Config{
			IdleGap:     time.Millisecond,
			Shards:      4,
			AssessQueue: 2,
		})
		var (
			stop    atomic.Bool
			joined  atomic.Int64 // devices taken through both packets
			started sync.WaitGroup
			wg      sync.WaitGroup
		)
		const workers = 4
		started.Add(workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := uint32(0); !stop.Load(); i++ {
					mac := packet.MAC{0x02, 0xCE, byte(w), byte(i >> 16), byte(i >> 8), byte(i)}
					pk := packet.NewUDP(mac, gwMAC, devIP, gwIP, 40000, 53, []byte("q"))
					ts := time.Unix(9000, int64(i))
					// The second packet, an IdleGap later, finishes the capture.
					for _, at := range []time.Time{ts, ts.Add(time.Millisecond)} {
						if _, err := g.HandlePacket(at, pk); err != nil {
							t.Errorf("HandlePacket: %v", err)
							return
						}
					}
					joined.Add(1)
					if i == 8 {
						started.Done()
					}
				}
			}(w)
		}
		started.Wait()
		g.Close()
		g.Close() // idempotent
		// Keep joining on the inline path for a while after the switch.
		for after := joined.Load() + 32; joined.Load() < after; {
			time.Sleep(50 * time.Microsecond)
		}
		stop.Store(true)
		wg.Wait()

		stranded := 0
		for _, s := range g.shards {
			s.mu.Lock()
			for _, rec := range s.devices {
				if rec.info.State == StateMonitoring && rec.cap == nil {
					stranded++
				}
			}
			s.mu.Unlock()
		}
		if stranded > 0 {
			t.Fatalf("round %d: %d devices left monitoring with no capture after Close", round, stranded)
		}
		checkRecords(t, g)
	}
}
