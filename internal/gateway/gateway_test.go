package gateway

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/vulndb"
	"iotsentinel/internal/wps"
)

// trainService builds an IoTSSP over a few device-types.
func trainService(t *testing.T) *iotssp.Service {
	t.Helper()
	full := devices.GenerateDataset(12, 21)
	samples := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2"} {
		samples[core.TypeID(typ)] = full[typ]
	}
	// A stricter acceptance threshold improves unknown-device
	// rejection on this small 4-type bank (see the core package's
	// unknown-detection test for the rationale).
	id, err := core.Train(samples, core.Config{Seed: 2, AcceptThreshold: 0.7})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	svc := iotssp.New(id, vulndb.NewDefault())
	svc.SetEndpoints("EdnetCam", []netip.Addr{netip.MustParseAddr("52.20.7.7")})
	svc.SetEndpoints("iKettle2", []netip.Addr{netip.MustParseAddr("52.21.3.3")})
	return svc
}

func newGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	return New(trainService(t), sw, cfg)
}

// playCapture feeds a synthesized device capture through the gateway.
func playCapture(t *testing.T, g *Gateway, cap devices.Capture) {
	t.Helper()
	for i, pk := range cap.Packets {
		if _, err := g.HandlePacket(cap.Times[i], pk); err != nil {
			t.Fatalf("HandlePacket %d: %v", i, err)
		}
	}
}

func TestOnboardCleanDevice(t *testing.T) {
	var assessed []DeviceInfo
	g := newGateway(t, Config{
		IdleGap:    5 * time.Second,
		OnAssessed: func(d DeviceInfo) { assessed = append(assessed, d) },
	})
	p, err := devices.ProfileByID("HueBridge")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 50)[0]
	playCapture(t, g, cap)

	info, ok := g.Device(cap.MAC)
	if !ok {
		t.Fatal("device not tracked")
	}
	if info.State != StateMonitoring {
		t.Fatalf("state = %v before idle gap", info.State)
	}
	// A later packet after the idle gap completes the setup phase.
	late := packet.NewARP(cap.MAC, netip.MustParseAddr("192.168.1.30"),
		netip.MustParseAddr("192.168.1.1"))
	if _, err := g.HandlePacket(cap.Times[len(cap.Times)-1].Add(time.Minute), late); err != nil {
		t.Fatalf("HandlePacket(late): %v", err)
	}

	info, _ = g.Device(cap.MAC)
	if info.State != StateAssessed {
		t.Fatalf("state = %v after idle gap", info.State)
	}
	if info.Type != "HueBridge" {
		t.Errorf("identified as %q", info.Type)
	}
	if info.Level != sdn.Trusted {
		t.Errorf("level = %v, want trusted (clean device)", info.Level)
	}
	if len(assessed) != 1 || assessed[0].Type != "HueBridge" {
		t.Errorf("OnAssessed calls: %+v", assessed)
	}
	// The enforcement rule is installed.
	rule, ok := g.Switch().Controller().Rules().Get(cap.MAC)
	if !ok || rule.Level != sdn.Trusted {
		t.Errorf("rule = %+v, ok=%v", rule, ok)
	}
}

func TestOnboardVulnerableDeviceNotifies(t *testing.T) {
	var notes []Notification
	g := newGateway(t, Config{
		IdleGap:  5 * time.Second,
		OnNotify: func(n Notification) { notes = append(notes, n) },
	})
	p, err := devices.ProfileByID("EdnetCam")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 51)[0]
	playCapture(t, g, cap)
	if err := g.FinishSetup(cap.MAC, cap.Times[len(cap.Times)-1]); err != nil {
		t.Fatalf("FinishSetup: %v", err)
	}

	info, _ := g.Device(cap.MAC)
	if info.Type != "EdnetCam" || info.Level != sdn.Restricted {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Vulnerabilities) == 0 {
		t.Error("vulnerabilities missing")
	}
	// EdnetCam's critical vulnerability has no fix: the user must be
	// notified to remove the device (Sect. III-C3).
	if len(notes) != 1 {
		t.Fatalf("notifications = %d, want 1", len(notes))
	}
	if notes[0].Type != "EdnetCam" {
		t.Errorf("notification = %+v", notes[0])
	}
	rule, ok := g.Switch().Controller().Rules().Get(cap.MAC)
	if !ok || rule.Level != sdn.Restricted || len(rule.PermittedIPs) != 1 {
		t.Errorf("rule = %+v", rule)
	}
}

func TestUnknownDeviceGetsStrict(t *testing.T) {
	g := newGateway(t, Config{IdleGap: 5 * time.Second})
	// HomeMaticPlug is not in the trained set and is structurally
	// distinct (no WiFi association, LLC frames).
	p, err := devices.ProfileByID("HomeMaticPlug")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 52)[0]
	playCapture(t, g, cap)
	if err := g.FinishSetup(cap.MAC, cap.Times[len(cap.Times)-1]); err != nil {
		t.Fatalf("FinishSetup: %v", err)
	}
	info, _ := g.Device(cap.MAC)
	if info.Type != core.Unknown {
		t.Errorf("identified unknown device as %q", info.Type)
	}
	if info.Level != sdn.Strict {
		t.Errorf("level = %v, want strict", info.Level)
	}
}

func TestEnforcementAfterAssessment(t *testing.T) {
	g := newGateway(t, Config{IdleGap: 5 * time.Second})
	p, err := devices.ProfileByID("EdnetCam")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 53)[0]
	playCapture(t, g, cap)
	if err := g.FinishSetup(cap.MAC, cap.Times[len(cap.Times)-1]); err != nil {
		t.Fatalf("FinishSetup: %v", err)
	}

	now := cap.Times[len(cap.Times)-1].Add(time.Minute)
	devIP := netip.MustParseAddr("192.168.1.40")
	// Permitted endpoint: forwarded.
	allowed := packet.NewTCPSyn(cap.MAC, packet.MAC{2, 2, 2, 2, 2, 2},
		devIP, netip.MustParseAddr("52.20.7.7"), 40000, 443)
	act, err := g.HandlePacket(now, allowed)
	if err != nil {
		t.Fatal(err)
	}
	if act != sdn.ActionForward {
		t.Error("permitted endpoint blocked")
	}
	// Arbitrary Internet host: dropped.
	blocked := packet.NewTCPSyn(cap.MAC, packet.MAC{2, 2, 2, 2, 2, 2},
		devIP, netip.MustParseAddr("93.184.216.34"), 40001, 443)
	act, err = g.HandlePacket(now, blocked)
	if err != nil {
		t.Fatal(err)
	}
	if act != sdn.ActionDrop {
		t.Error("restricted device reached arbitrary internet host")
	}
}

func TestRemoveDevice(t *testing.T) {
	g := newGateway(t, Config{IdleGap: 5 * time.Second})
	p, err := devices.ProfileByID("Aria")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 54)[0]
	playCapture(t, g, cap)
	if err := g.FinishSetup(cap.MAC, cap.Times[len(cap.Times)-1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Switch().Controller().Rules().Get(cap.MAC); !ok {
		t.Fatal("rule missing before removal")
	}
	g.RemoveDevice(cap.MAC)
	if _, ok := g.Device(cap.MAC); ok {
		t.Error("device still tracked")
	}
	if _, ok := g.Switch().Controller().Rules().Get(cap.MAC); ok {
		t.Error("rule still cached")
	}
}

func TestFinishSetupUnknownDevice(t *testing.T) {
	g := newGateway(t, Config{})
	err := g.FinishSetup(packet.MAC{1, 2, 3, 4, 5, 6}, time.Now())
	if err == nil {
		t.Error("FinishSetup on unmonitored device must fail")
	}
}

func TestDevicesSorted(t *testing.T) {
	g := newGateway(t, Config{IdleGap: time.Hour})
	base := time.Unix(100, 0)
	for i := 3; i >= 1; i-- {
		mac := packet.MAC{0x02, 0, 0, 0, 0, byte(i)}
		pk := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"),
			netip.MustParseAddr("192.168.1.1"))
		if _, err := g.HandlePacket(base, pk); err != nil {
			t.Fatal(err)
		}
	}
	ds := g.Devices()
	if len(ds) != 3 {
		t.Fatalf("devices = %d", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].MAC.String() >= ds[i].MAC.String() {
			t.Errorf("devices not sorted: %v", ds)
		}
	}
}

type failingAssessor struct{}

func (failingAssessor) Assess(fingerprint.Fingerprint) (iotssp.Assessment, error) {
	return iotssp.Assessment{}, errors.New("service unreachable")
}

func TestAssessorFailureQuarantines(t *testing.T) {
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	g := New(failingAssessor{}, sw, Config{IdleGap: time.Second})

	mac := packet.MAC{0x02, 9, 9, 9, 9, 9}
	pk := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"),
		netip.MustParseAddr("192.168.1.1"))
	base := time.Unix(0, 0)
	if _, err := g.HandlePacket(base, pk); err != nil {
		t.Fatal(err)
	}
	// Second packet, an IdleGap later, ends the setup phase and triggers
	// the failing assessment: the device must be quarantined
	// fail-closed, not left wedged in monitoring with a surfaced error.
	base = base.Add(time.Second)
	if _, err := g.HandlePacket(base, pk); err != nil {
		t.Fatalf("assessor failure must quarantine, not error: %v", err)
	}
	info, ok := g.Device(mac)
	if !ok || info.State != StateQuarantined {
		t.Fatalf("device = %+v, ok=%v, want quarantined", info, ok)
	}
	rule, ok := g.Switch().Controller().Rules().Get(mac)
	if !ok || rule.Level != sdn.Strict || rule.DeviceType != sdn.QuarantineType {
		t.Errorf("quarantine rule = %+v, ok=%v", rule, ok)
	}
	// Internet-bound traffic from the quarantined device is dropped.
	blocked := packet.NewTCPSyn(mac, packet.MAC{2, 2, 2, 2, 2, 2},
		netip.MustParseAddr("192.168.1.9"), netip.MustParseAddr("93.184.216.34"), 40000, 443)
	act, err := g.HandlePacket(base.Add(time.Millisecond), blocked)
	if err != nil {
		t.Fatal(err)
	}
	if act != sdn.ActionDrop {
		t.Error("quarantined device reached the internet")
	}
}

func TestGatewayEnrollsNewDevices(t *testing.T) {
	ks := wps.NewKeystore()
	g := newGateway(t, Config{IdleGap: time.Hour, Keystore: ks})

	mac := packet.MAC{2, 4, 0, 0, 0, 9}
	pk := packet.NewARP(mac, netip.MustParseAddr("192.168.1.5"), netip.MustParseAddr("192.168.1.1"))
	if _, err := g.HandlePacket(time.Unix(0, 0), pk); err != nil {
		t.Fatal(err)
	}
	if _, ok := ks.Lookup(mac); !ok {
		t.Error("new device not enrolled")
	}
	g.RemoveDevice(mac)
	if _, ok := ks.Lookup(mac); ok {
		t.Error("credential not revoked on removal")
	}
}

func TestExpiryWorker(t *testing.T) {
	g := newGateway(t, Config{})
	// Short idle timeout + fast sweep so the test completes quickly.
	g.Switch().Table().IdleTimeout = time.Millisecond
	w := NewExpiryWorker(g, 5*time.Millisecond)

	// Install a flow via the data path for an already-assessed device.
	mac := packet.MAC{0x02, 7, 7, 7, 7, 7}
	g.Switch().Controller().Rules().Put(&sdn.EnforcementRule{DeviceMAC: mac, Level: sdn.Trusted})
	pk := packet.NewTCPSyn(mac, packet.MAC{2, 2, 2, 2, 2, 2},
		netip.MustParseAddr("192.168.1.80"), netip.MustParseAddr("192.168.1.81"), 40000, 80)
	g.Switch().Process(pk, time.Now().Add(-time.Minute))
	if g.Switch().Table().Len() != 1 {
		t.Fatalf("flow not installed")
	}

	deadline := time.Now().Add(2 * time.Second)
	for g.Switch().Table().Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	expired := w.Shutdown()
	if expired < 1 {
		t.Errorf("worker expired %d flows, want >= 1", expired)
	}
	if g.Switch().Table().Len() != 0 {
		t.Error("idle flow not evicted")
	}
}
