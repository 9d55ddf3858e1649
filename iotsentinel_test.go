package iotsentinel

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"iotsentinel/internal/sdn"
)

func smallDataset(t *testing.T) Dataset {
	t.Helper()
	full := ReferenceDataset(10, 3)
	ds := make(Dataset)
	for _, typ := range []DeviceType{"Aria", "HueBridge", "EdnetCam", "iKettle2", "Withings"} {
		fps, ok := full[typ]
		if !ok {
			t.Fatalf("reference dataset missing %q", typ)
		}
		ds[typ] = fps
	}
	return ds
}

func TestDeviceTypesComplete(t *testing.T) {
	types := DeviceTypes()
	if len(types) != 27 {
		t.Fatalf("DeviceTypes = %d entries, want 27", len(types))
	}
}

func TestReferenceDatasetSize(t *testing.T) {
	ds := ReferenceDataset(20, 1)
	total := 0
	for _, fps := range ds {
		total += len(fps)
	}
	if total != 540 {
		t.Errorf("dataset size = %d, want 540 (27 types x 20)", total)
	}
}

func TestTrainAndIdentifyFacade(t *testing.T) {
	ds := smallDataset(t)
	id, err := TrainIdentifier(ds, WithSeed(42), WithForestTrees(15))
	if err != nil {
		t.Fatalf("TrainIdentifier: %v", err)
	}
	caps, err := GenerateSetupTraffic("HueBridge", 3, 77)
	if err != nil {
		t.Fatalf("GenerateSetupTraffic: %v", err)
	}
	correct := 0
	for _, c := range caps {
		fp := FingerprintPackets(c.Packets)
		if id.Identify(fp).Type == "HueBridge" {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("identified %d/3", correct)
	}
}

func TestTrainIdentifierError(t *testing.T) {
	if _, err := TrainIdentifier(Dataset{}); err == nil {
		t.Error("empty dataset must fail")
	}
}

func TestOptions(t *testing.T) {
	ds := smallDataset(t)
	// All options must be accepted and produce a working identifier.
	id, err := TrainIdentifier(ds,
		WithSeed(1),
		WithForestTrees(5),
		WithNegativeRatio(5),
		WithReferenceFingerprints(3),
		WithAcceptThreshold(0.4),
	)
	if err != nil {
		t.Fatalf("TrainIdentifier: %v", err)
	}
	if id.NumTypes() != len(ds) {
		t.Errorf("NumTypes = %d", id.NumTypes())
	}
}

func TestFingerprintPCAPFacade(t *testing.T) {
	caps, err := GenerateSetupTraffic("Withings", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := caps[0].WritePCAP(&buf); err != nil {
		t.Fatalf("WritePCAP: %v", err)
	}
	fp, err := FingerprintPCAP(bytes.NewReader(buf.Bytes()), caps[0].MAC.String())
	if err != nil {
		t.Fatalf("FingerprintPCAP: %v", err)
	}
	want := FingerprintPackets(caps[0].Packets)
	if fp.FPrime != want.FPrime {
		t.Error("pcap fingerprint differs from direct fingerprint")
	}
	if _, err := FingerprintPCAP(bytes.NewReader([]byte("junk")), ""); err == nil {
		t.Error("junk pcap must fail")
	}
}

func TestDecodeFrameFacade(t *testing.T) {
	caps, err := GenerateSetupTraffic("Aria", 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := caps[0].Packets[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if pk.SrcMAC != caps[0].MAC {
		t.Errorf("SrcMAC = %v", pk.SrcMAC)
	}
	if _, err := DecodeFrame(nil); err == nil {
		t.Error("empty frame must decode with error")
	}
}

func TestNewSentinelEndToEnd(t *testing.T) {
	ds := smallDataset(t)
	s, err := NewSentinel(ds, WithSeed(7))
	if err != nil {
		t.Fatalf("NewSentinel: %v", err)
	}
	caps, err := GenerateSetupTraffic("EdnetCam", 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	c := caps[0]
	for i, pk := range c.Packets {
		if _, err := s.Gateway.HandlePacket(c.Times[i], pk); err != nil {
			t.Fatalf("HandlePacket: %v", err)
		}
	}
	if err := s.Gateway.FinishSetup(c.MAC, c.Times[len(c.Times)-1]); err != nil {
		t.Fatalf("FinishSetup: %v", err)
	}
	info, ok := s.Gateway.Device(c.MAC)
	if !ok {
		t.Fatal("device not tracked")
	}
	if info.Type != "EdnetCam" {
		t.Errorf("identified as %q", info.Type)
	}
	// EdnetCam is in the default vulnerability DB: restricted.
	if info.Level != Restricted {
		t.Errorf("level = %v, want restricted", info.Level)
	}
	rule, ok := s.Controller.Rules().Get(c.MAC)
	if !ok || rule.Level != sdn.Restricted {
		t.Errorf("rule = %+v ok=%v", rule, ok)
	}
}

func TestSentinelWithKeystore(t *testing.T) {
	ds := smallDataset(t)
	ks := NewKeystore()
	s, err := NewSentinel(ds, WithSeed(7), WithKeystore(ks))
	if err != nil {
		t.Fatalf("NewSentinel: %v", err)
	}
	caps, err := GenerateSetupTraffic("Aria", 1, 44)
	if err != nil {
		t.Fatal(err)
	}
	c := caps[0]
	if _, err := s.Gateway.HandlePacket(c.Times[0], c.Packets[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := ks.Lookup(c.MAC); !ok {
		t.Error("device not enrolled on first packet")
	}
	s.Gateway.RemoveDevice(c.MAC)
	if _, ok := ks.Lookup(c.MAC); ok {
		t.Error("credential not revoked on RemoveDevice")
	}
}

// TestStdlibOnly pins the project's no-dependency invariant: the
// module must never acquire external requirements.
func TestStdlibOnly(t *testing.T) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatalf("read go.mod: %v", err)
	}
	if strings.Contains(string(data), "require") {
		t.Errorf("go.mod acquired dependencies:\n%s", data)
	}
}
