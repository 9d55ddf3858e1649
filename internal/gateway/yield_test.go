package gateway

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// TestCompletedCaptureYieldsToItsAssessment pins what the yield after a
// queued capture is for, on one processor, where nothing but the caller
// stepping aside can run the drain worker: the frame that completes a
// capture is forwarded unswitched (its action is settled before the
// yield, so no packet-in even though the verdict lands during it), and
// the assessment has been started by the time HandlePacket returns —
// before a frame of any other device is handled, not when the caller
// next runs out of frames. The inline path, the reference the
// differential tests compare the queue against, steps aside for nobody.
//
// One schedule in 61 the Go scheduler resumes the yielding goroutine
// first, and a collection may preempt anybody, so both halves count over
// many joins instead of requiring every one.
func TestCompletedCaptureYieldsToItsAssessment(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const devices = 64
	base := time.Unix(5000, 0)
	mac := func(i int) packet.MAC { return testMAC(700 + i) }

	t.Run("queued", func(t *testing.T) {
		a := &catalogAssessor{}
		g := newGatewayWithAssessor(a, Config{AssessQueue: 8})
		defer g.Close()
		started := 0
		for i := 0; i < devices; i++ {
			if _, err := g.HandlePacket(base, arpPacket(mac(i))); err != nil {
				t.Fatal(err)
			}
			before := g.Switch().Stats().PacketIns
			// The first frame after the idle gap ends the setup phase.
			act, err := g.HandlePacket(base.Add(time.Minute), arpPacket(mac(i)))
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Switch().Stats().PacketIns; act != sdn.ActionForward || got != before {
				t.Fatalf("device %d: the completing frame returned %v after %d packet-ins; want it forwarded unswitched",
					i, act, got-before)
			}
			if int(a.calls.Load()) == i+1 {
				started++
			}
			g.WaitAssessIdle()
		}
		if started < devices*9/10 {
			t.Errorf("%d of %d assessments had started when their completing frame returned", started, devices)
		}
	})

	t.Run("inline", func(t *testing.T) {
		g := newGatewayWithAssessor(&catalogAssessor{}, Config{})
		yielded := 0
		for i := 0; i < devices; i++ {
			if _, err := g.HandlePacket(base, arpPacket(mac(i))); err != nil {
				t.Fatal(err)
			}
			// Runnable, and next in line: it runs as soon as this
			// goroutine lets go of the processor.
			var ran atomic.Bool
			done := make(chan struct{})
			go func() { ran.Store(true); close(done) }()
			if _, err := g.HandlePacket(base.Add(time.Minute), arpPacket(mac(i))); err != nil {
				t.Fatal(err)
			}
			if ran.Load() {
				yielded++
			}
			<-done
			if info, _ := g.Device(mac(i)); info.State != StateAssessed {
				t.Fatalf("device %d is %v after its inline assessment", i, info.State)
			}
		}
		if yielded > devices/10 {
			t.Errorf("the inline path gave up the processor on %d of %d completing frames", yielded, devices)
		}
	})
}
