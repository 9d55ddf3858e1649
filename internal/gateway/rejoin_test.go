package gateway

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
)

// checkRecords checks the invariants of the gateway's device records at
// a quiescent point: no assessed or quarantined record holds a capture
// (every capture ends), a parked fingerprint belongs to a quarantined
// record, QuarantineLen counts the parked records, and the rule table is
// the one device state implies.
func checkRecords(t *testing.T, g *Gateway) {
	t.Helper()
	parked := 0
	for _, s := range g.shards {
		s.mu.Lock()
		for _, rec := range s.devices {
			if rec.cap != nil && rec.info.State != StateMonitoring {
				t.Errorf("device %v is %v and holds an open capture", rec.info.MAC, rec.info.State)
			}
			if rec.parked != nil {
				parked++
				if rec.info.State != StateQuarantined {
					t.Errorf("device %v is %v and holds a parked fingerprint", rec.info.MAC, rec.info.State)
				}
			}
		}
		s.mu.Unlock()
	}
	if got := g.QuarantineLen(); got != parked {
		t.Errorf("QuarantineLen = %d, records holding a parked fingerprint %d", got, parked)
	}
	if got, want := g.Switch().Controller().Rules().Digest(), digestFromDevices(g); got != want {
		t.Errorf("rule table digest %016x, recomputed from device state %016x", got, want)
	}
}

// claimCapture takes mac's open capture off its record, as a finishing
// capture does, and returns the record: the owner of the verdict a test
// then hands the gateway.
func claimCapture(g *Gateway, mac packet.MAC) *device {
	s := g.shardOf(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.devices[mac.Word()]
	rec.cap = nil
	return rec
}

// feedAs feeds cap's frames through g as if sent from mac and
// returns the time, an IdleGap after the last of them, at which a frame
// ends the capture.
func feedAs(t *testing.T, g *Gateway, cap devices.Capture, mac packet.MAC) time.Time {
	t.Helper()
	for i, pk := range cap.Packets {
		frame := *pk
		frame.SrcMAC = mac
		if _, err := g.HandlePacket(cap.Times[i], &frame); err != nil {
			t.Fatal(err)
		}
	}
	return cap.Times[len(cap.Times)-1].Add(g.cfg.IdleGap)
}

// TestRejoinTakesItsOwnVerdict removes a device while its assessment is
// parked inside the assessor and lets a device of another type join on
// the same MAC before the verdict comes back. The verdict is for the
// incarnation that left: it must not land on the one that joined, whose
// own capture then ends and is assessed as its own type. Variants: the
// stale verdict is a success; a failure (which must not quarantine the
// newcomer nor strand its capture); a failure whose parked fingerprint a
// retry drain would then promote onto the newcomer.
func TestRejoinTakesItsOwnVerdict(t *testing.T) {
	svc := trainService(t)
	leaves := devices.GenerateCaptures(mustProfile(t, "HueBridge"), 1, 31)[0]
	joins := devices.GenerateCaptures(mustProfile(t, "Aria"), 1, 33)[0]
	mac := leaves.MAC
	for _, variant := range []string{"assessed", "quarantined", "retried"} {
		t.Run(variant, func(t *testing.T) {
			var inner iotssp.Assessor = svc
			if variant != "assessed" {
				inner = &flakyAssessor{failures: 1, inner: svc}
			}
			gate := &gatedAssessor{inner: inner, entered: make(chan struct{}, 4), release: make(chan struct{})}
			var (
				mu          sync.Mutex
				assessed    []DeviceInfo
				quarantined int
			)
			g := newGatewayWithAssessor(gate, Config{
				IdleGap:     time.Hour,
				AssessQueue: 8,
				OnAssessed: func(d DeviceInfo) {
					mu.Lock()
					assessed = append(assessed, d)
					mu.Unlock()
				},
				OnQuarantined: func(DeviceInfo, error) {
					mu.Lock()
					quarantined++
					mu.Unlock()
				},
			})
			defer g.Close()

			trigger := func(at time.Time) {
				if _, err := g.HandlePacket(at, arpPacket(mac)); err != nil {
					t.Fatal(err)
				}
			}
			trigger(feedAs(t, g, leaves, mac))
			<-gate.entered // join 1's verdict is in flight
			g.RemoveDevice(mac)
			end := feedAs(t, g, joins, mac)
			close(gate.release)
			g.WaitAssessIdle()
			if variant == "retried" {
				if _, err := g.RetryQuarantined(end); err != nil {
					t.Fatal(err)
				}
			}
			trigger(end) // join 2's own capture ends
			g.WaitAssessIdle()

			mu.Lock()
			defer mu.Unlock()
			if len(assessed) != 1 || assessed[0].Type != "Aria" {
				t.Errorf("OnAssessed calls %+v, want exactly one, for join 2's Aria", assessed)
			}
			if quarantined != 0 {
				t.Errorf("OnQuarantined fired %d times; join 1's failure quarantined join 2", quarantined)
			}
			if info, _ := g.Device(mac); info.State != StateAssessed || info.Type != "Aria" {
				t.Errorf("device = %v %q, want assessed Aria", info.State, info.Type)
			}
			checkRecords(t, g)
		})
	}
}

// TestRemovalSparesRejoinedRule rejoins a device, and has it assessed,
// while its removal waits for the journal: the removal's rule eviction,
// which follows that wait, must not take the new incarnation's rule.
func TestRemovalSparesRejoinedRule(t *testing.T) {
	st, _ := openStore(t, t.TempDir())
	defer st.Close()
	g := newGatewayWithAssessor(nopAssessor{}, Config{IdleGap: time.Hour, Store: st})
	mac := testMAC(1)
	join := func() {
		if _, err := g.HandlePacket(time.Unix(100, 0), arpPacket(mac)); err != nil {
			t.Fatal(err)
		}
		if err := g.FinishSetup(mac, time.Unix(101, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		join()
		removed := make(chan struct{})
		go func() {
			g.RemoveDevice(mac)
			close(removed)
		}()
		for {
			if _, ok := g.Device(mac); !ok {
				break
			}
			runtime.Gosched()
		}
		join()
		<-removed
		checkRecords(t, g)
		g.RemoveDevice(mac)
	}
}
