package iotssp

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/vulndb"
)

// testService trains a small identifier over a handful of catalog
// device-types and wires the default vulnerability DB.
func testService(t testing.TB) (*Service, devices.Dataset) {
	t.Helper()
	types := []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"}
	ds := make(devices.Dataset)
	full := devices.GenerateDataset(12, 9)
	for _, id := range types {
		ds[id] = full[id]
	}
	samples := make(map[core.TypeID][]fingerprint.Fingerprint, len(ds))
	for k, v := range ds {
		samples[core.TypeID(k)] = v
	}
	id, err := core.Train(samples, core.Config{Seed: 4})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	svc := New(id, vulndb.NewDefault())
	svc.SetEndpoints("EdnetCam", []netip.Addr{netip.MustParseAddr("52.20.9.9")})
	svc.SetEndpoints("iKettle2", []netip.Addr{netip.MustParseAddr("52.21.8.8")})
	return svc, ds
}

func probeFor(t testing.TB, typ string, seed int64) fingerprint.Fingerprint {
	t.Helper()
	p, err := devices.ProfileByID(typ)
	if err != nil {
		t.Fatal(err)
	}
	caps := devices.GenerateCaptures(p, 1, seed)
	return fingerprint.FromPackets(caps[0].Packets)
}

func TestAssessCleanDeviceTrusted(t *testing.T) {
	svc, _ := testService(t)
	a, err := svc.Assess(probeFor(t, "HueBridge", 100))
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	if a.Type != "HueBridge" || !a.Known {
		t.Fatalf("assessment = %+v", a)
	}
	if a.Level != sdn.Trusted {
		t.Errorf("Level = %v, want trusted (no vulnerabilities on file)", a.Level)
	}
	if len(a.Vulnerabilities) != 0 {
		t.Errorf("unexpected vulnerabilities: %v", a.Vulnerabilities)
	}
}

func TestAssessVulnerableDeviceRestricted(t *testing.T) {
	svc, _ := testService(t)
	a, err := svc.Assess(probeFor(t, "EdnetCam", 101))
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	if a.Type != "EdnetCam" {
		t.Fatalf("identified as %q", a.Type)
	}
	if a.Level != sdn.Restricted {
		t.Errorf("Level = %v, want restricted", a.Level)
	}
	if len(a.Vulnerabilities) == 0 {
		t.Error("vulnerable device returned no records")
	}
	if len(a.PermittedIPs) != 1 {
		t.Errorf("PermittedIPs = %v", a.PermittedIPs)
	}
}

func TestAssessUnknownDeviceStrict(t *testing.T) {
	svc, _ := testService(t)
	// A type the service was never trained on.
	a, err := svc.Assess(probeFor(t, "MAXGateway", 102))
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	if a.Known {
		t.Fatalf("untrained type identified as %q", a.Type)
	}
	if a.Level != sdn.Strict {
		t.Errorf("Level = %v, want strict for unknown devices", a.Level)
	}
}

func TestUnknownSink(t *testing.T) {
	svc, _ := testService(t)
	var got []fingerprint.Fingerprint
	svc.SetUnknownSink(func(fp fingerprint.Fingerprint) { got = append(got, fp) })
	known := probeFor(t, "HueBridge", 100)
	unknown := probeFor(t, "MAXGateway", 102)
	if _, err := svc.Assess(known); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("sink fired for a known device")
	}
	if _, err := svc.Assess(unknown); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sink saw %d fingerprints after one unknown assessment", len(got))
	}
	// A sink that calls back into the service must not deadlock — the
	// online-learning loop does exactly this.
	svc.SetUnknownSink(func(fp fingerprint.Fingerprint) {
		if svc.HasType("MAXGateway") {
			t.Error("MAXGateway unexpectedly known")
		}
	})
	if _, err := svc.Assess(unknown); err != nil {
		t.Fatal(err)
	}
	svc.SetUnknownSink(nil)
	if _, err := svc.Assess(unknown); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteType(t *testing.T) {
	svc, _ := testService(t)
	full := devices.GenerateDataset(12, 33)
	cluster := full["MAXGateway"]
	before := svc.Identifier()
	next, err := svc.PromoteType("MAXGateway", cluster)
	if err != nil {
		t.Fatalf("PromoteType: %v", err)
	}
	if next == before {
		t.Fatal("PromoteType returned the old bank")
	}
	if svc.Identifier() != next {
		t.Fatal("service is not serving the promoted bank")
	}
	if !svc.HasType("MAXGateway") {
		t.Fatal("promoted type missing from the bank")
	}
	if len(svc.Types()) != 6 {
		t.Errorf("Types = %v", svc.Types())
	}
	// The pre-promotion bank must be untouched: train-while-serving.
	if before.NumTypes() != 5 {
		t.Errorf("old bank mutated: NumTypes = %d", before.NumTypes())
	}
	a, err := svc.Assess(probeFor(t, "MAXGateway", 103))
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != "MAXGateway" || !a.Known {
		t.Errorf("post-promotion assessment = %+v", a)
	}
}

func TestPromoteTypeValidationGate(t *testing.T) {
	svc, _ := testService(t)
	// A "cluster" drawn from an already-known type: the new classifier
	// loses every discrimination to the real one, so validation fails
	// and the serving bank must be left alone.
	full := devices.GenerateDataset(12, 33)
	before := svc.Identifier()
	_, err := svc.PromoteType("HueBridgeClone", full["HueBridge"])
	if err == nil {
		t.Fatal("promotion of a shadowed cluster passed validation")
	}
	if !errors.Is(err, ErrValidationFailed) {
		t.Fatalf("err = %v, want ErrValidationFailed", err)
	}
	if svc.Identifier() != before {
		t.Fatal("failed promotion swapped the bank")
	}
	if svc.HasType("HueBridgeClone") {
		t.Fatal("failed promotion left the type in the bank")
	}
}

func TestPromoteTypeRejectsBadInput(t *testing.T) {
	svc, _ := testService(t)
	if _, err := svc.PromoteType(core.Unknown, devices.GenerateDataset(2, 1)["Aria"]); err == nil {
		t.Error("promoting the unknown type must fail")
	}
	if _, err := svc.PromoteType("X", nil); err == nil {
		t.Error("promoting an empty cluster must fail")
	}
	if _, err := svc.PromoteType("Aria", devices.GenerateDataset(2, 1)["Aria"]); err == nil {
		t.Error("promoting an already-trained type must fail")
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	client := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	a, err := client.Assess(probeFor(t, "EdnetCam", 104))
	if err != nil {
		t.Fatalf("client.Assess: %v", err)
	}
	if a.Type != "EdnetCam" || a.Level != sdn.Restricted {
		t.Errorf("assessment = %+v", a)
	}
	if len(a.PermittedIPs) != 1 || a.PermittedIPs[0] != netip.MustParseAddr("52.20.9.9") {
		t.Errorf("PermittedIPs = %v", a.PermittedIPs)
	}
	if len(a.Vulnerabilities) == 0 {
		t.Fatal("vulnerabilities lost over the wire")
	}
	// EdnetCam's top record is critical with no fix; the gateway's
	// Sect. III-C3 notification depends on both fields surviving.
	if a.Vulnerabilities[0].Severity != vulndb.SeverityCritical {
		t.Errorf("severity lost over the wire: %+v", a.Vulnerabilities[0])
	}
	if a.Vulnerabilities[0].FixedInUpdate {
		t.Errorf("FixedInUpdate corrupted over the wire: %+v", a.Vulnerabilities[0])
	}
}

func TestHTTPTypesEndpoint(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/types")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{"Aria", "HueBridge", "iKettle2"} {
		if !strings.Contains(body, want) {
			t.Errorf("types response missing %q: %s", want, body)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	// Wrong method.
	resp, err := srv.Client().Get(srv.URL + "/v1/assess")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/assess status = %d", resp.StatusCode)
	}

	// Not a fingerprint block: the two bytes read as a row count promise
	// more than the body holds.
	resp, err = srv.Client().Post(srv.URL+"/v1/assess", assessContentType,
		strings.NewReader("{not a block"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed block status = %d", resp.StatusCode)
	}

	// The request format of the releases before this one.
	resp, err = srv.Client().Post(srv.URL+"/v1/assess", "application/json",
		strings.NewReader(`{"f":[[1,2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("json request status = %d", resp.StatusCode)
	}

	// Client against a dead server errors cleanly.
	dead := &Client{BaseURL: "http://127.0.0.1:1"}
	if _, err := dead.Assess(fingerprint.Fingerprint{}); err == nil {
		t.Error("dead server should error")
	}
}

// TestHeadMemoPurgedOnBankChange: the service's two bank swaps leave no
// accept set of the old bank behind. A device of a type the bank does
// not know yet is assessed — which memoizes its head's accept set, one
// without that type — then the type arrives by PromoteType or by
// Install, and a capture sharing only the head must be matched to it.
func TestHeadMemoPurgedOnBankChange(t *testing.T) {
	cluster := devices.GenerateDataset(12, 33)["MAXGateway"]
	var probe, variant fingerprint.Fingerprint
	for seed := int64(103); ; seed++ {
		probe = probeFor(t, "MAXGateway", seed)
		if n := len(probe.F); n >= 2 && probe.F[0] != probe.F[n-1] {
			// Repeating a symbol F already holds changes the full key
			// and leaves the head alone.
			variant = fingerprint.FromPacked(append(append([]features.Packed(nil), probe.F...), probe.F[0]))
			break
		}
	}
	if variant.F.Head() != probe.F.Head() || variant.CanonicalKey() == probe.CanonicalKey() {
		t.Fatal("variant does not share the head alone")
	}
	warm := func(t *testing.T) *Service {
		t.Helper()
		svc, _ := testService(t)
		if err := svc.Identifier().ApplyRuntime(0, 64); err != nil {
			t.Fatal(err)
		}
		if a, err := svc.Assess(probe); err != nil || a.Type == "MAXGateway" {
			t.Fatalf("pre-swap assessment = %+v, %v", a, err)
		}
		if _, misses := svc.Identifier().Cache().HeadStats(); misses != 1 {
			t.Fatalf("head not memoized: %d head misses", misses)
		}
		return svc
	}
	check := func(t *testing.T, svc *Service) {
		t.Helper()
		a, err := svc.Assess(variant)
		if err != nil || a.Type != "MAXGateway" {
			t.Errorf("post-swap assessment = %+v, %v: the old bank's accept set was served", a, err)
		}
	}
	t.Run("PromoteType", func(t *testing.T) {
		svc := warm(t)
		if _, err := svc.PromoteType("MAXGateway", cluster); err != nil {
			t.Fatal(err)
		}
		check(t, svc)
	})
	t.Run("Install", func(t *testing.T) {
		svc := warm(t)
		next, err := svc.Identifier().WithType("MAXGateway", cluster)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Install(next); err != nil {
			t.Fatal(err)
		}
		check(t, svc)
	})
}

// TestPermittedIPsSortedOnceAndShared: endpoints are sorted once, when
// they are set, into the service's own copy, which every assessment of
// the type shares; a later SetEndpoints replaces it without touching
// what earlier assessments hold.
func TestPermittedIPsSortedOnceAndShared(t *testing.T) {
	svc, _ := testService(t)
	ips := []netip.Addr{netip.MustParseAddr("52.20.9.9"), netip.MustParseAddr("10.0.0.7"), netip.MustParseAddr("52.20.9.1")}
	svc.SetEndpoints("EdnetCam", ips)
	probe := probeFor(t, "EdnetCam", 104)
	want := []netip.Addr{ips[1], ips[2], ips[0]}
	var held []netip.Addr
	for pass := 0; pass < 2; pass++ {
		a, err := svc.Assess(probe)
		if err != nil || a.Type != "EdnetCam" {
			t.Fatalf("assessment = %+v, %v", a, err)
		}
		if !slices.Equal(a.PermittedIPs, want) {
			t.Fatalf("PermittedIPs = %v, want %v", a.PermittedIPs, want)
		}
		if held != nil && &held[0] != &a.PermittedIPs[0] {
			t.Error("two assessments of one type hold two copies of its endpoints")
		}
		held = a.PermittedIPs
	}
	if ips[0] != netip.MustParseAddr("52.20.9.9") {
		t.Error("SetEndpoints sorted its caller's slice")
	}
	svc.SetEndpoints("EdnetCam", ips[:1])
	if !slices.Equal(held, want) {
		t.Errorf("SetEndpoints changed an earlier assessment's endpoints to %v", held)
	}
	if a, _ := svc.Assess(probe); !slices.Equal(a.PermittedIPs, ips[:1]) {
		t.Errorf("PermittedIPs after SetEndpoints = %v, want %v", a.PermittedIPs, ips[:1])
	}
}
