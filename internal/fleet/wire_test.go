package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/testutil"
)

// testFingerprint builds a deterministic fingerprint with rows distinct
// enough to survive the consecutive-duplicate dedup.
func testFingerprint(rows int, seed float64) fingerprint.Fingerprint {
	ps := make([]features.Packed, rows)
	for r := range ps {
		// Any word with the reserved top bit clear is a valid symbol;
		// the offset keeps the smallest (negative) seeds positive.
		ps[r] = features.Packed(int64(seed) + 4096 + int64(r))
	}
	return fingerprint.FromPacked(ps)
}

// seedOf recovers the seed testFingerprint was built with.
func seedOf(fp fingerprint.Fingerprint) float64 { return float64(int64(fp.F[0]) - 4096) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[frameType][]byte{
		ftHello:     []byte(`{"versions":[2],"gatewayId":"g1"}`),
		ftHeartbeat: nil,
		ftCounters:  encodeCounters(7, 2),
	}
	for ft, p := range payloads {
		buf.Reset()
		if err := writeFrame(&buf, ft, p); err != nil {
			t.Fatalf("writeFrame(%s): %v", ft, err)
		}
		gotT, gotP, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame(%s): %v", ft, err)
		}
		if gotT != ft {
			t.Errorf("frame type = %s, want %s", gotT, ft)
		}
		if !bytes.Equal(gotP, p) {
			t.Errorf("payload = %x, want %x", gotP, p)
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// A header claiming a payload beyond the bound must be rejected
	// before any allocation of that size.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, byte(ftBatch)}
	if _, _, err := readFrame(bytes.NewReader(hdr)); err != errFrameTooLarge {
		t.Fatalf("err = %v, want errFrameTooLarge", err)
	}
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err != errFrameEmpty {
		t.Fatalf("zero-length frame err = %v, want errFrameEmpty", err)
	}
}

func TestReadFrameShortPayload(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, ftBatch, []byte{1, 2, 3, 4})
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, err := readFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	if _, _, err := readFrame(io.MultiReader()); err == nil {
		t.Fatal("empty stream decoded without error")
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		offered []uint32
		want    uint32
		ok      bool
	}{
		{[]uint32{2}, 2, true},
		{[]uint32{99, 2}, 2, true},
		{[]uint32{1, 2}, 2, true},
		{[]uint32{99}, 0, false},
		{[]uint32{1}, 0, false}, // V1's float batches are gone
		{nil, 0, false},
	}
	for _, c := range cases {
		got, ok := negotiate(c.offered)
		if got != c.want || ok != c.ok {
			t.Errorf("negotiate(%v) = %d,%v want %d,%v", c.offered, got, ok, c.want, c.ok)
		}
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	fps := []fingerprint.Fingerprint{
		testFingerprint(1, 0),
		testFingerprint(7, 100),
		testFingerprint(23, 1e6),
	}
	payload, err := encodeBatch(fps)
	if err != nil {
		t.Fatalf("encodeBatch: %v", err)
	}
	got, err := decodeBatch(payload)
	if err != nil {
		t.Fatalf("decodeBatch: %v", err)
	}
	if len(got) != len(fps) {
		t.Fatalf("decoded %d fingerprints, want %d", len(got), len(fps))
	}
	for i := range fps {
		// Only F travels; F′ is re-derived on decode and must land on
		// the same bytes the sender computed locally.
		if !reflect.DeepEqual(got[i].F, fps[i].F) {
			t.Errorf("fingerprint %d: F mismatch", i)
		}
		if got[i].FPrime != fps[i].FPrime {
			t.Errorf("fingerprint %d: re-derived F' mismatch", i)
		}
		if got[i].UniqueCount != fps[i].UniqueCount {
			t.Errorf("fingerprint %d: UniqueCount = %d, want %d", i, got[i].UniqueCount, fps[i].UniqueCount)
		}
	}
}

func TestBatchCodecRejectsAbuse(t *testing.T) {
	if _, err := encodeBatch(nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := encodeBatch([]fingerprint.Fingerprint{{}}); err == nil {
		t.Error("zero-row fingerprint encoded")
	}
	if _, err := decodeBatch(nil); err == nil {
		t.Error("nil payload decoded")
	}
	if _, err := decodeBatch([]byte{0, 0}); err == nil {
		t.Error("zero-count batch decoded")
	}
	// Count claims more fingerprints than the payload carries.
	payload, _ := encodeBatch([]fingerprint.Fingerprint{testFingerprint(2, 0)})
	payload[1] = 9
	if _, err := decodeBatch(payload); err == nil {
		t.Error("count/payload mismatch decoded")
	}
	// A word the extractor cannot produce (reserved bit set).
	payload, _ = encodeBatch([]fingerprint.Fingerprint{testFingerprint(2, 0)})
	payload[4] |= 0x80 // top byte of the first big-endian row
	if _, err := decodeBatch(payload); err == nil {
		t.Error("invalid packed symbol decoded")
	}
	// A V1-layout batch (23 float64s per row) must not parse as V2.
	v1 := []byte{0, 1, 0, 1}
	for c := 0; c < features.Count; c++ {
		v1 = binary.BigEndian.AppendUint64(v1, math.Float64bits(float64(c)))
	}
	if _, err := decodeBatch(v1); err == nil {
		t.Error("V1 float-row batch decoded")
	}
	// Trailing junk after a valid batch.
	payload, _ = encodeBatch([]fingerprint.Fingerprint{testFingerprint(2, 0)})
	if _, err := decodeBatch(append(payload, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestCountersCodec(t *testing.T) {
	a, u, err := decodeCounters(encodeCounters(123456, 789))
	if err != nil || a != 123456 || u != 789 {
		t.Fatalf("round trip = %d,%d,%v", a, u, err)
	}
	if _, _, err := decodeCounters([]byte{1, 2, 3}); err == nil {
		t.Fatal("short counters decoded")
	}
}

func TestModelPushCodec(t *testing.T) {
	model := []byte("serialized bank bytes")
	sum := sha256.Sum256(model)
	sha, got, err := decodeModelPush(encodeModelPush(sum, model))
	if err != nil {
		t.Fatalf("decodeModelPush: %v", err)
	}
	if sha != sum || !bytes.Equal(got, model) {
		t.Fatal("model push round trip mismatch")
	}
	if _, _, err := decodeModelPush([]byte("short")); err == nil {
		t.Fatal("short model push decoded")
	}
}

// TestV1OnlyPeerIsRefused: V1 carried float rows and is gone, so a peer
// that speaks nothing newer is turned away by the hello/welcome
// negotiation itself — a V1-only gateway gets the server's
// no-shared-version error frame and a close, and a gateway welcomed at
// V1 fails its handshake — rather than by batches that no longer parse.
func TestV1OnlyPeerIsRefused(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	f := startFleet(t, t.TempDir())
	c, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	old := &framedConn{c: c, writeTimeout: time.Second}
	if err := old.writeJSON(ftHello, helloMsg{Versions: []uint32{1}, GatewayID: "old-gw"}); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := readFrame(c)
	if err != nil || ft != ftError {
		t.Fatalf("V1-only hello answered with %s, %v; want an error frame", ft, err)
	}
	var em errorMsg
	if err := json.Unmarshal(payload, &em); err != nil || !strings.Contains(em.Msg, "no shared protocol version") {
		t.Fatalf("error frame %q (%v), want the negotiation refusal", payload, err)
	}
	if _, _, err := readFrame(c); err == nil {
		t.Error("server kept the connection open after refusing the hello")
	}
	if ids := f.reg.IDs(); len(ids) != 0 {
		t.Errorf("refused gateway was registered: %v", ids)
	}

	srv, cli := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		if ft, _, err := readFrame(srv); err != nil || ft != ftHello {
			return
		}
		peer := &framedConn{c: srv, writeTimeout: time.Second}
		_ = peer.writeJSON(ftWelcome, welcomeMsg{Version: 1, LeaseMillis: time.Hour.Milliseconds()})
	}()
	_, err = handshake(&framedConn{c: cli, writeTimeout: time.Second},
		helloMsg{Versions: supportedVersions, GatewayID: "g1"})
	if err == nil {
		t.Fatal("gateway accepted a welcome at protocol v1")
	}
	if !strings.Contains(err.Error(), "unsupported protocol v1") {
		t.Errorf("gateway handshake error %q, want the unsupported-version refusal", err)
	}
}

// postedBody answers every request with a 400 after keeping its body:
// what iotssp.Client put on the wire.
type postedBody struct{ body []byte }

func (p *postedBody) RoundTrip(r *http.Request) (*http.Response, error) {
	var err error
	if p.body, err = io.ReadAll(r.Body); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusBadRequest)
	return rec.Result(), nil
}

// TestAssessBodyIsTheSharedFCodec: a fingerprint leaves the process in
// one encoding. For a capture of each catalog profile, the body
// iotssp.Client posts to /v1/assess is fingerprint.AppendF of its F, and
// is the per-fingerprint block of this package's batch of one. (The test
// lives here because fleet imports iotssp, not the reverse.)
func TestAssessBodyIsTheSharedFCodec(t *testing.T) {
	catalog := devices.Catalog()
	if len(catalog) != 27 {
		t.Errorf("catalog has %d profiles, the test was written for 27", len(catalog))
	}
	for i, p := range catalog {
		fp := fingerprint.FromPackets(devices.GenerateCaptures(p, 1, int64(300+i))[0].Packets)
		wire := &postedBody{}
		client := &iotssp.Client{BaseURL: "http://ssp.test", HTTPClient: &http.Client{Transport: wire}}
		if _, err := client.Assess(fp); err == nil {
			t.Fatalf("%s: the stub's 400 came back as a verdict", p.ID)
		}
		block, err := fingerprint.AppendF(nil, fp.F)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.body, block) {
			t.Errorf("%s: Client posted %d bytes, AppendF wrote %d others", p.ID, len(wire.body), len(block))
		}
		batch, err := encodeBatch([]fingerprint.Fingerprint{fp})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.body, batch[batchHeader:]) {
			t.Errorf("%s: Client posted %d bytes, the fleet batch carries %d others for the same fingerprint", p.ID, len(wire.body), len(batch)-batchHeader)
		}
	}
}
