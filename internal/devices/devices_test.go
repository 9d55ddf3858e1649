package devices

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 27 {
		t.Fatalf("catalog has %d profiles, want 27 (Table II)", len(cat))
	}
	seen := make(map[string]bool, len(cat))
	for _, p := range cat {
		if p.ID == "" || p.Vendor == "" || p.Model == "" {
			t.Errorf("profile %+v missing identity fields", p)
		}
		if seen[p.ID] {
			t.Errorf("duplicate profile ID %q", p.ID)
		}
		seen[p.ID] = true
		if p.Conn == 0 {
			t.Errorf("profile %q has no connectivity", p.ID)
		}
	}
	// Spot-check Table II connectivity rows.
	checks := map[string]Connectivity{
		"Aria":          WiFi,
		"HueBridge":     ZigBee | Ethernet,
		"D-LinkHomeHub": WiFi | Ethernet | ZWave,
		"HomeMaticPlug": Other,
		"MAXGateway":    Ethernet | Other,
	}
	for id, want := range checks {
		p, err := ProfileByID(id)
		if err != nil {
			t.Fatalf("ProfileByID(%q): %v", id, err)
		}
		if p.Conn != want {
			t.Errorf("%s connectivity = %v, want %v", id, p.Conn, want)
		}
	}
}

func TestSiblingGroupsExist(t *testing.T) {
	for _, group := range SiblingGroups() {
		if len(group) < 2 {
			t.Errorf("sibling group %v too small", group)
		}
		for _, id := range group {
			if _, err := ProfileByID(id); err != nil {
				t.Errorf("sibling %q not in catalog: %v", id, err)
			}
		}
	}
}

func TestProfileByIDUnknown(t *testing.T) {
	if _, err := ProfileByID("NoSuchDevice"); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestGenerateBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range Catalog() {
		cap := p.Generate(rng)
		if len(cap.Packets) < 4 {
			t.Errorf("%s: only %d packets generated", p.ID, len(cap.Packets))
		}
		if len(cap.Times) != len(cap.Packets) {
			t.Errorf("%s: %d times for %d packets", p.ID, len(cap.Times), len(cap.Packets))
		}
		for i := 1; i < len(cap.Times); i++ {
			if !cap.Times[i].After(cap.Times[i-1]) {
				t.Errorf("%s: timestamps not increasing at %d", p.ID, i)
			}
		}
		var zero packet.MAC
		if cap.MAC == zero {
			t.Errorf("%s: zero MAC", p.ID)
		}
		for i, pk := range cap.Packets {
			if pk.SrcMAC != cap.MAC {
				t.Errorf("%s packet %d: src MAC %v != device MAC %v", p.ID, i, pk.SrcMAC, cap.MAC)
			}
			if pk.Size <= 0 {
				t.Errorf("%s packet %d: size %d", p.ID, i, pk.Size)
			}
		}
	}
}

// everyCapture is each catalog profile's setup, standby and operation
// capture, and the setup capture with its responses, drawn from one rng:
// every packet shape the substrate builds.
func everyCapture(seed int64) []Capture {
	rng := rand.New(rand.NewSource(seed))
	var out []Capture
	for _, p := range Catalog() {
		setup := p.Generate(rng)
		out = append(out, setup, p.GenerateStandby(rng, 3), p.GenerateOperation(rng, 4),
			setup.WithResponses(rng))
	}
	return out
}

func TestGenerateMarshalable(t *testing.T) {
	for _, cap := range everyCapture(2) {
		for i, pk := range cap.Packets {
			frame, err := pk.Marshal()
			if err != nil {
				t.Fatalf("%s packet %d: Marshal: %v", cap.Type, i, err)
			}
			if len(frame) != pk.Size {
				t.Fatalf("%s packet %d: Size %d, frame %d bytes", cap.Type, i, pk.Size, len(frame))
			}
			back, err := packet.Decode(frame)
			if err != nil {
				t.Fatalf("%s packet %d: Decode: %v", cap.Type, i, err)
			}
			if back.Size != pk.Size {
				t.Errorf("%s packet %d: size %d -> %d", cap.Type, i, pk.Size, back.Size)
			}
		}
	}
}

// TestFrameGolden pins every frame the substrate builds, byte for byte,
// and its Size: SHA-256 over each frame of everyCapture at five seeds,
// each preceded by its Size. Training sets, the golden forest and the
// model-file digests all rest on these frames, so a change to the
// packet builders or to Marshal that is meant to keep them must leave
// this digest alone.
func TestFrameGolden(t *testing.T) {
	const want = "4da3f43e72f2c0616bd42fbaa0413ca6402694ed37c101c17e986f1e6ecbc880"
	h := sha256.New()
	frames := 0
	for _, seed := range []int64{1, 39, 540, 1611, 2017} {
		for _, cap := range everyCapture(seed) {
			for i, pk := range cap.Packets {
				frame, err := pk.Marshal()
				if err != nil {
					t.Fatalf("%s packet %d: Marshal: %v", cap.Type, i, err)
				}
				var n [4]byte
				binary.BigEndian.PutUint32(n[:], uint32(pk.Size))
				h.Write(n[:])
				h.Write(frame)
				frames++
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest over %d frames = %s, want %s", frames, got, want)
	}
}

func TestGenerateVariation(t *testing.T) {
	// Two captures of the same device must differ (noise), but both
	// must still be non-trivial.
	p, err := ProfileByID("HueBridge")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a := p.Generate(rng)
	b := p.Generate(rng)
	if a.MAC == b.MAC {
		t.Error("two captures drew the same device MAC")
	}
	if len(a.Packets) == len(b.Packets) {
		// Same count is possible; require some difference in sizes.
		same := true
		for i := range a.Packets {
			if a.Packets[i].Size != b.Packets[i].Size {
				same = false
				break
			}
		}
		if same {
			t.Error("two captures are byte-for-byte identical in sizes")
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	ds := GenerateDataset(5, 42)
	if len(ds) != 27 {
		t.Fatalf("dataset types = %d, want 27", len(ds))
	}
	if ds.Size() != 27*5 {
		t.Fatalf("dataset size = %d, want %d", ds.Size(), 27*5)
	}
	for id, fps := range ds {
		for i, fp := range fps {
			if len(fp.F) < 3 {
				t.Errorf("%s fingerprint %d: only %d packets in F", id, i, len(fp.F))
			}
			if fp.UniqueCount < 3 {
				t.Errorf("%s fingerprint %d: only %d unique packets", id, i, fp.UniqueCount)
			}
		}
	}
}

func TestGenerateDatasetDeterministic(t *testing.T) {
	a := GenerateDataset(3, 7)
	b := GenerateDataset(3, 7)
	for id := range a {
		for i := range a[id] {
			if a[id][i].FPrime != b[id][i].FPrime {
				t.Fatalf("%s fingerprint %d differs across same-seed runs", id, i)
			}
		}
	}
}

func TestPCAPRoundTrip(t *testing.T) {
	p, err := ProfileByID("Withings")
	if err != nil {
		t.Fatal(err)
	}
	caps := GenerateCaptures(p, 1, 11)
	var buf bytes.Buffer
	if err := caps[0].WritePCAP(&buf); err != nil {
		t.Fatalf("WritePCAP: %v", err)
	}
	direct, _, err := FingerprintRecords(nil, "")
	if err != nil {
		t.Fatalf("FingerprintRecords(empty): %v", err)
	}
	if len(direct.F) != 0 {
		t.Error("empty records produced non-empty fingerprint")
	}

	fp, used, err := ReadPCAP(bytes.NewReader(buf.Bytes()), caps[0].MAC.String())
	if err != nil {
		t.Fatalf("ReadPCAP: %v", err)
	}
	if used != len(caps[0].Packets) {
		t.Errorf("used %d frames, want %d", used, len(caps[0].Packets))
	}
	// The pcap-derived fingerprint must match the direct one.
	want := fingerprintOf(caps[0])
	if fp.FPrime != want.FPrime {
		t.Error("pcap round-trip changed the fingerprint")
	}
}

func TestReadPCAPFiltersByMAC(t *testing.T) {
	p, err := ProfileByID("Aria")
	if err != nil {
		t.Fatal(err)
	}
	caps := GenerateCaptures(p, 1, 13)
	var buf bytes.Buffer
	if err := caps[0].WritePCAP(&buf); err != nil {
		t.Fatalf("WritePCAP: %v", err)
	}
	fp, used, err := ReadPCAP(bytes.NewReader(buf.Bytes()), "02:00:00:00:00:99")
	if err != nil {
		t.Fatalf("ReadPCAP: %v", err)
	}
	if used != 0 || len(fp.F) != 0 {
		t.Errorf("foreign MAC matched %d frames", used)
	}
	if _, _, err := ReadPCAP(bytes.NewReader(buf.Bytes()), "not-a-mac"); err == nil {
		t.Error("bad MAC must fail")
	}
}

func TestConnectivityString(t *testing.T) {
	tests := []struct {
		give Connectivity
		want string
	}{
		{WiFi, "wifi"},
		{WiFi | Ethernet, "wifi+ethernet"},
		{ZigBee | ZWave | Other, "zigbee+zwave+other"},
		{0, "none"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Connectivity(%b).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestMACUsesOUI(t *testing.T) {
	p, err := ProfileByID("HueBridge")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m := p.MAC(rng)
	if m[0] != p.OUI[0]&^0x01 || m[1] != p.OUI[1] || m[2] != p.OUI[2] {
		t.Errorf("MAC %v does not carry OUI %v", m, p.OUI)
	}
	if m.IsMulticast() {
		t.Error("generated MAC must be unicast")
	}
}

func fingerprintOf(c Capture) fingerprint.Fingerprint {
	return fingerprint.FromPackets(c.Packets)
}

func TestGenerateStandby(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range Catalog() {
		cap := p.GenerateStandby(rng, 3)
		if len(cap.Packets) < 3 {
			t.Errorf("%s: standby produced %d packets", p.ID, len(cap.Packets))
		}
		for i, pk := range cap.Packets {
			// Standby traffic must not contain setup-only exchanges.
			if pk.Network == packet.NetEAPoL {
				t.Errorf("%s packet %d: EAPoL in standby traffic", p.ID, i)
			}
			if pk.App == packet.AppDHCP {
				t.Errorf("%s packet %d: DHCP in standby traffic", p.ID, i)
			}
		}
	}
}

func TestGenerateStandbyDataset(t *testing.T) {
	ds := GenerateStandbyDataset(4, 11)
	if len(ds) != 27 || ds.Size() != 27*4 {
		t.Fatalf("standby dataset %d types / %d fingerprints", len(ds), ds.Size())
	}
}

func TestWithFirmwareUpdate(t *testing.T) {
	orig, err := ProfileByID("SmarterCoffee")
	if err != nil {
		t.Fatal(err)
	}
	updated := orig.WithFirmwareUpdate()
	if updated.ID != "SmarterCoffee+fw2" {
		t.Errorf("ID = %q", updated.ID)
	}
	if orig.ID != "SmarterCoffee" {
		t.Error("WithFirmwareUpdate mutated the original profile")
	}
	// The update must not change the original's cloud alphabets.
	if orig.traits.cloud[0].helloLens == nil {
		t.Skip("profile has no TLS endpoint")
	}
	rng := rand.New(rand.NewSource(5))
	cap := updated.Generate(rng)
	if len(cap.Packets) < 4 {
		t.Errorf("updated profile generated %d packets", len(cap.Packets))
	}
}

func TestWithResponses(t *testing.T) {
	p, err := ProfileByID("Withings")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	cap := p.Generate(rng)
	bi := cap.WithResponses(rng)
	if len(bi.Packets) <= len(cap.Packets) {
		t.Fatalf("no responses added: %d vs %d", len(bi.Packets), len(cap.Packets))
	}
	if len(bi.Times) != len(bi.Packets) {
		t.Fatalf("times/packets mismatch")
	}
	sawReply := false
	gw := GatewayMAC()
	for i, pk := range bi.Packets {
		if pk.SrcMAC == gw {
			sawReply = true
		}
		if i > 0 && bi.Times[i].Before(bi.Times[i-1]) {
			t.Errorf("timestamps not monotone at %d", i)
		}
	}
	if !sawReply {
		t.Error("no gateway-sourced replies present")
	}
	// The MAC-filtered fingerprint over the bidirectional capture must
	// equal the device-only fingerprint.
	want := fingerprintOf(cap)
	got := fingerprintOf(Capture{Packets: filterByMAC(bi.Packets, cap.MAC)})
	if got.FPrime != want.FPrime {
		t.Error("responses changed the device fingerprint")
	}
}

func filterByMAC(pkts []*packet.Packet, mac packet.MAC) []*packet.Packet {
	var out []*packet.Packet
	for _, pk := range pkts {
		if pk.SrcMAC == mac {
			out = append(out, pk)
		}
	}
	return out
}

func TestWithResponsesPCAPRoundTrip(t *testing.T) {
	p, err := ProfileByID("EdnetCam")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	cap := p.Generate(rng)
	bi := cap.WithResponses(rng)
	var buf bytes.Buffer
	if err := bi.WritePCAP(&buf); err != nil {
		t.Fatalf("WritePCAP: %v", err)
	}
	fp, used, err := ReadPCAP(bytes.NewReader(buf.Bytes()), cap.MAC.String())
	if err != nil {
		t.Fatalf("ReadPCAP: %v", err)
	}
	if used != len(cap.Packets) {
		t.Errorf("used %d frames, want %d device frames", used, len(cap.Packets))
	}
	if fp.FPrime != fingerprintOf(cap).FPrime {
		t.Error("bidirectional pcap fingerprint differs")
	}
}

func TestGenerateOperation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range Catalog() {
		cap := p.GenerateOperation(rng, 4)
		if len(cap.Packets) < 4 {
			t.Errorf("%s: operation traffic only %d packets", p.ID, len(cap.Packets))
		}
		for i, pk := range cap.Packets {
			if pk.Network == packet.NetEAPoL || pk.App == packet.AppDHCP {
				t.Errorf("%s packet %d: setup-only protocol in operation traffic", p.ID, i)
			}
		}
		for i := 1; i < len(cap.Times); i++ {
			if cap.Times[i].Before(cap.Times[i-1]) {
				t.Errorf("%s: timestamps not monotone", p.ID)
			}
		}
	}
}
