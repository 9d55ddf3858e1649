package gateway

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/vulndb"
	"iotsentinel/internal/wps"
)

// standbyService trains an IoTSSP on standby fingerprints, matching the
// legacy scenario where setup traffic was never observed.
func standbyService(t *testing.T, types []string) *iotssp.Service {
	t.Helper()
	full := devices.GenerateStandbyDataset(15, 41)
	samples := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range types {
		samples[core.TypeID(typ)] = full[typ]
	}
	id, err := core.Train(samples, core.Config{Seed: 5, AcceptThreshold: 0.7})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return iotssp.New(id, vulndb.NewDefault())
}

func standbyFP(t *testing.T, typ string, seed int64) fingerprint.Fingerprint {
	t.Helper()
	p, err := devices.ProfileByID(typ)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cap := p.GenerateStandby(rng, 3)
	return fingerprint.FromPackets(cap.Packets)
}

func TestMigrateLegacy(t *testing.T) {
	svc := standbyService(t, []string{"HueBridge", "EdnetCam", "Withings", "Aria"})
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	g := New(svc, sw, Config{})

	now := time.Unix(5000, 0)
	devs := []LegacyDevice{
		// Clean + WPS: migrates to trusted.
		{MAC: [6]byte{2, 1, 0, 0, 0, 1}, Fingerprint: standbyFP(t, "HueBridge", 70), SupportsWPS: true},
		// Clean but no WPS: stays strict, manual re-auth required.
		{MAC: [6]byte{2, 1, 0, 0, 0, 2}, Fingerprint: standbyFP(t, "Withings", 71), SupportsWPS: false},
		// Vulnerable: restricted regardless of WPS.
		{MAC: [6]byte{2, 1, 0, 0, 0, 3}, Fingerprint: standbyFP(t, "EdnetCam", 72), SupportsWPS: true},
	}
	out, err := g.MigrateLegacy(devs, now)
	if err != nil {
		t.Fatalf("MigrateLegacy: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("outcomes = %d", len(out))
	}

	if !out[0].Migrated || out[0].Level != sdn.Trusted || out[0].Type != "HueBridge" {
		t.Errorf("HueBridge outcome = %+v", out[0])
	}
	if out[1].Migrated || !out[1].ManualReauthRequired || out[1].Level != sdn.Strict {
		t.Errorf("Withings outcome = %+v", out[1])
	}
	if out[2].Migrated || out[2].Level != sdn.Restricted {
		t.Errorf("EdnetCam outcome = %+v", out[2])
	}

	// Rules are installed and devices tracked.
	for i, d := range devs {
		if _, ok := cache.Get(d.MAC); !ok {
			t.Errorf("device %d: no rule installed", i)
		}
		info, ok := g.Device(d.MAC)
		if !ok || info.State != StateAssessed {
			t.Errorf("device %d: info = %+v", i, info)
		}
	}
}

// TestMigrateLegacyCountsAssessed requires migrated devices in the
// per-state gauge, like any other assessed device.
func TestMigrateLegacyCountsAssessed(t *testing.T) {
	svc := standbyService(t, []string{"HueBridge", "EdnetCam"})
	sw := sdn.NewSwitch(sdn.NewController(sdn.NewRuleCache(), netip.Prefix{}), time.Minute)
	reg := obs.NewRegistry()
	g := New(svc, sw, Config{Metrics: NewMetrics(reg)})

	if _, err := g.MigrateLegacy([]LegacyDevice{
		{MAC: [6]byte{2, 5, 0, 0, 0, 1}, Fingerprint: standbyFP(t, "HueBridge", 70), SupportsWPS: true},
		{MAC: [6]byte{2, 5, 0, 0, 0, 2}, Fingerprint: standbyFP(t, "EdnetCam", 72)},
	}, time.Unix(5000, 0)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Value("gateway_devices", "state", "assessed"); got != 2 {
		t.Errorf("assessed gauge = %v, want 2", got)
	}
}

// TestMigrateLegacyDropsOpenCapture migrates a device the gateway is
// still capturing: the idle sweep must not re-assess it afterwards and
// overwrite the legacy verdict.
func TestMigrateLegacyDropsOpenCapture(t *testing.T) {
	svc := standbyService(t, []string{"HueBridge", "EdnetCam"})
	sw := sdn.NewSwitch(sdn.NewController(sdn.NewRuleCache(), netip.Prefix{}), time.Minute)
	g := New(svc, sw, Config{IdleGap: 5 * time.Second})

	mac := packet.MAC{2, 5, 0, 0, 0, 3}
	pk := packet.NewARP(mac, netip.MustParseAddr("192.168.1.5"), netip.MustParseAddr("192.168.1.1"))
	if _, err := g.HandlePacket(time.Unix(5000, 0), pk); err != nil {
		t.Fatal(err)
	}
	out, err := g.MigrateLegacy([]LegacyDevice{
		{MAC: mac, Fingerprint: standbyFP(t, "HueBridge", 70), SupportsWPS: true},
	}, time.Unix(5001, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n := g.FinalizeIdleCaptures(time.Unix(6000, 0)); n != 0 {
		t.Errorf("idle sweep finished %d captures after migration, want 0", n)
	}
	info, _ := g.Device(mac)
	if info.State != StateAssessed || string(info.Type) != out[0].Type || info.Level != out[0].Level {
		t.Errorf("device %+v, want the legacy verdict %+v", info, out[0])
	}
}

func TestMigrateLegacyUnknownDevice(t *testing.T) {
	svc := standbyService(t, []string{"HueBridge", "EdnetCam"})
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	g := New(svc, sw, Config{})

	// MAXGateway was not trained: unknown -> strict, never migrated.
	out, err := g.MigrateLegacy([]LegacyDevice{
		{MAC: [6]byte{2, 2, 0, 0, 0, 9}, Fingerprint: standbyFP(t, "MAXGateway", 80), SupportsWPS: true},
	}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Migrated || out[0].Level != sdn.Strict || out[0].Type != "" {
		t.Errorf("outcome = %+v", out[0])
	}
}

func TestMigrateLegacyAssessorFailure(t *testing.T) {
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	g := New(failingAssessor{}, sw, Config{})
	_, err := g.MigrateLegacy([]LegacyDevice{{MAC: [6]byte{1, 2, 3, 4, 5, 6}}}, time.Unix(0, 0))
	if err == nil {
		t.Error("failure must surface")
	}
}

func TestMigrateLegacyWithKeystore(t *testing.T) {
	svc := standbyService(t, []string{"HueBridge", "EdnetCam"})
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	ks := wps.NewKeystore(wps.WithLegacyPSK("old-shared-key"))
	g := New(svc, sw, Config{Keystore: ks})

	mac := packet.MAC{2, 3, 0, 0, 0, 1}
	out, err := g.MigrateLegacy([]LegacyDevice{
		{MAC: mac, Fingerprint: standbyFP(t, "HueBridge", 90), SupportsWPS: true},
	}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Migrated || out[0].PSKFingerprint == "" {
		t.Fatalf("outcome = %+v", out[0])
	}
	cred, ok := ks.Lookup(mac)
	if !ok {
		t.Fatal("no credential issued")
	}
	if cred.Fingerprint() != out[0].PSKFingerprint {
		t.Error("fingerprint mismatch")
	}
}

func TestGatewayEnrollsNewDevices(t *testing.T) {
	svc := standbyService(t, []string{"HueBridge", "EdnetCam"})
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	ks := wps.NewKeystore()
	g := New(svc, sw, Config{IdleGap: time.Hour, Keystore: ks})

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
