package gateway

import (
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
)

// TestFinishAllSetups drains several still-monitoring devices in one
// sweep and checks each gets the same assessment a per-device
// FinishSetup would have produced.
func TestFinishAllSetups(t *testing.T) {
	var assessed []DeviceInfo
	g := newGateway(t, Config{
		IdleGap:    time.Minute, // long gap: nobody finishes during replay
		OnAssessed: func(d DeviceInfo) { assessed = append(assessed, d) },
	})

	types := []string{"HueBridge", "Aria", "EdnetCam"}
	caps := make([]devices.Capture, 0, len(types))
	var last time.Time
	for i, typ := range types {
		p, err := devices.ProfileByID(typ)
		if err != nil {
			t.Fatal(err)
		}
		cap := devices.GenerateCaptures(p, 1, int64(60+i))[0]
		playCapture(t, g, cap)
		caps = append(caps, cap)
		if end := cap.Times[len(cap.Times)-1]; end.After(last) {
			last = end
		}
	}
	for _, cap := range caps {
		if info, _ := g.Device(cap.MAC); info.State != StateMonitoring {
			t.Fatalf("device %v not monitoring before batch finish", cap.MAC)
		}
	}

	if n := g.FinishAllSetups(last.Add(time.Minute)); n != len(types) {
		t.Fatalf("assessed %d devices, want %d", n, len(types))
	}
	if len(assessed) != len(types) {
		t.Fatalf("OnAssessed fired %d times, want %d", len(assessed), len(types))
	}
	for i, cap := range caps {
		info, ok := g.Device(cap.MAC)
		if !ok || info.State != StateAssessed {
			t.Fatalf("device %v: info = %+v, ok = %v", cap.MAC, info, ok)
		}
		if info.Type != core.TypeID(types[i]) {
			t.Errorf("device %v identified as %q, want %q", cap.MAC, info.Type, types[i])
		}
		if _, ok := g.Switch().Controller().Rules().Get(cap.MAC); !ok {
			t.Errorf("device %v: no enforcement rule installed", cap.MAC)
		}
	}

	// Draining an empty queue is a no-op.
	if n := g.FinishAllSetups(last.Add(2 * time.Minute)); n != 0 {
		t.Errorf("empty drain finished %d captures", n)
	}
}

// assessOnly exposes nothing of the wrapped service but Assess, the
// way a remote client does.
type assessOnly struct{ inner iotssp.Assessor }

func (a assessOnly) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	return a.inner.Assess(fp)
}

// TestFinishAllSetupsFallback drains a capture through an assessor that
// offers only Assess (e.g. the HTTP client) and checks it is identified.
func TestFinishAllSetupsFallback(t *testing.T) {
	g := newGatewayWithAssessor(assessOnly{trainService(t)}, Config{IdleGap: time.Minute})

	p, err := devices.ProfileByID("HueBridge")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 77)[0]
	playCapture(t, g, cap)

	if n := g.FinishAllSetups(cap.Times[len(cap.Times)-1].Add(time.Minute)); n != 1 {
		t.Fatalf("assessed %d devices, want 1", n)
	}
	if info, _ := g.Device(cap.MAC); info.Type != "HueBridge" {
		t.Errorf("identified as %q", info.Type)
	}
}

// TestGatewayConcurrentTraffic hammers the gateway data path from many
// goroutines while devices onboard, then drains the monitoring queue
// in one sweep; run with -race to validate the gateway's locking against
// the identifier's concurrent bank access.
func TestGatewayConcurrentTraffic(t *testing.T) {
	g := newGateway(t, Config{IdleGap: time.Minute})
	types := []string{"HueBridge", "Aria", "EdnetCam", "iKettle2"}
	var wg sync.WaitGroup
	for i, typ := range types {
		p, err := devices.ProfileByID(typ)
		if err != nil {
			t.Fatal(err)
		}
		cap := devices.GenerateCaptures(p, 1, int64(80+i))[0]
		wg.Add(1)
		go func(cap devices.Capture) {
			defer wg.Done()
			for j, pk := range cap.Packets {
				if _, err := g.HandlePacket(cap.Times[j], pk); err != nil {
					t.Errorf("HandlePacket: %v", err)
					return
				}
			}
		}(cap)
	}
	wg.Wait()
	g.FinishAllSetups(time.Unix(1e6, 0))
	for _, d := range g.Devices() {
		if d.State != StateAssessed {
			t.Errorf("device %v still %v after drain", d.MAC, d.State)
		}
	}
}
