package iotssp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/vulndb"
)

// postAssess posts one request body to srv's assess endpoint and
// returns the status and the response body.
func postAssess(t *testing.T, srv *httptest.Server, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/assess", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// requestsByCode reads iotssp_server_requests_total out of reg, codes
// that never occurred left out.
func requestsByCode(reg *obs.Registry) map[string]float64 {
	snap := reg.Snapshot()
	got := make(map[string]float64)
	for _, code := range []int{200, 400, 405, 413, 415, 500} {
		label := strconv.Itoa(code)
		if v := snap.Value("iotssp_server_requests_total", "code", label); v != 0 {
			got[label] = v
		}
	}
	return got
}

// TestAssessRejectsOversizedBody pins the 413 path: the cap is what the
// codec can carry, a body of exactly that size is still decoded (and
// refused for what it holds), one byte more is refused for its size and
// counted.
func TestAssessRejectsOversizedBody(t *testing.T) {
	if maxAssessBody != 2+8*math.MaxUint16 {
		t.Fatalf("maxAssessBody = %d, want the codec's largest block %d", maxAssessBody, 2+8*math.MaxUint16)
	}
	svc, _ := testService(t)
	reg := obs.NewRegistry()
	m := NewServerMetrics(reg)
	srv := httptest.NewServer(HandlerWithMetrics(svc, m))
	defer srv.Close()

	// At the cap: 0xffff rows claimed and present, every word junk. The
	// refusal is the decoder's, about the first word.
	junk := bytes.Repeat([]byte{0xff}, maxAssessBody+1)
	code, msg := postAssess(t, srv, assessContentType, junk[:maxAssessBody])
	if code != http.StatusBadRequest || !strings.Contains(msg, "row 0") {
		t.Errorf("exactly-at-cap junk: status %d body %q, want 400 naming row 0", code, msg)
	}
	if got := m.oversized.Value(); got != 0 {
		t.Errorf("oversized_requests_total = %d after an at-cap body, want 0", got)
	}

	code, msg = postAssess(t, srv, assessContentType, junk)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("cap+1 body: status %d body %q, want 413", code, msg)
	}
	if got := m.oversized.Value(); got != 1 {
		t.Errorf("oversized_requests_total = %d, want 1", got)
	}
	if got, want := requestsByCode(reg), map[string]float64{"400": 1, "413": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("requests_total by code = %v, want %v", got, want)
	}
}

// TestAssessRejectsZeroRowMatrix pins that a block of no rows is a
// client error, not an empty fingerprint flowing into the classifier
// bank — and so are a body cut short and a body that goes on.
func TestAssessRejectsZeroRowMatrix(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	good, err := fingerprint.AppendF(nil, probeFor(t, "Aria", 41).F)
	if err != nil {
		t.Fatal(err)
	}
	for name, tt := range map[string]struct {
		body []byte
		want string
	}{
		"zero rows":          {[]byte{0, 0}, "empty fingerprint"},
		"no body":            {nil, "truncated before its row count"},
		"half a count":       {[]byte{0}, "truncated before its row count"},
		"last word cut":      {good[:len(good)-1], "truncated"},
		"a byte too many":    {append(append([]byte(nil), good...), 0), "1 bytes after"},
		"zero rows and more": {[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "8 bytes after"},
	} {
		code, msg := postAssess(t, srv, assessContentType, tt.body)
		if code != http.StatusBadRequest || !strings.Contains(msg, tt.want) {
			t.Errorf("%s: status %d body %q, want 400 mentioning %q", name, code, msg, tt.want)
		}
	}
	if code, msg := postAssess(t, srv, assessContentType, good); code != http.StatusOK {
		t.Errorf("the block those bodies were cut from: status %d body %q, want 200", code, msg)
	}
}

// garbledTransport answers every request with a 200 whose body is not
// a decodable assessment — the shape of a misbehaving proxy.
type garbledTransport struct{ calls int }

func (g *garbledTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	g.calls++
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusOK)
	fmt.Fprint(rec, `<html>totally not json</html>`)
	return rec.Result(), nil
}

// TestBreakerOpensOnGarbledSuccesses pins the breaker semantics:
// repeated 200s whose bodies cannot be decoded must count against the
// breaker and eventually open the circuit. Before the fix they were
// recorded as successes, so a junk-returning proxy kept the circuit
// closed forever.
func TestBreakerOpensOnGarbledSuccesses(t *testing.T) {
	const threshold = 3
	clock := newFakeClock()
	breaker := NewCircuitBreaker(threshold, 0, clock)
	client := &Client{
		BaseURL:    "http://garbled.test",
		HTTPClient: &http.Client{Transport: &garbledTransport{}},
		Breaker:    breaker,
		Clock:      clock,
	}

	for i := 0; i < threshold; i++ {
		if st := breaker.State(); st != BreakerClosed {
			t.Fatalf("breaker %v before attempt %d", st, i)
		}
		_, err := client.Assess(probeFor(t, "Aria", int64(40+i)))
		if err == nil {
			t.Fatalf("attempt %d: garbled 200 decoded successfully", i)
		}
		var de *decodeError
		if !errors.As(err, &de) {
			t.Fatalf("attempt %d: err = %v, want decodeError", i, err)
		}
	}
	if st := breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker = %v after %d garbled 200s, want open", st, threshold)
	}
	// Open circuit fails fast without touching the transport.
	if _, err := client.Assess(probeFor(t, "Aria", 50)); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}

	// A well-formed 4xx is still service-alive: it must not re-open a
	// recovered breaker.
	if outcome := breakerOutcome(&statusError{code: 400, msg: "bad"}); outcome != nil {
		t.Errorf("4xx recorded as breaker failure: %v", outcome)
	}
	if outcome := breakerOutcome(&statusError{code: 503, msg: "down"}); outcome == nil {
		t.Error("5xx recorded as breaker success")
	}
}

// failingResponseWriter accepts headers but fails every body write,
// the shape of a client that hung up mid-response.
type failingResponseWriter struct{ header http.Header }

func (f *failingResponseWriter) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *failingResponseWriter) Write([]byte) (int, error) {
	return 0, errors.New("connection reset")
}
func (f *failingResponseWriter) WriteHeader(int) {}

// TestWriteJSONCountsEncodeErrors pins that response-encode failures
// increment the server obs bundle instead of vanishing.
func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewServerMetrics(reg)
	writeJSON(&failingResponseWriter{}, map[string]string{"k": "v"}, m)
	if got := m.encodeErrors.Value(); got != 1 {
		t.Errorf("encode_errors_total = %d, want 1", got)
	}
	// nil bundle must stay a no-op.
	writeJSON(&failingResponseWriter{}, map[string]string{"k": "v"}, nil)

	// And a successful encode must not count.
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]string{"k": "v"}, m)
	if got := m.encodeErrors.Value(); got != 1 {
		t.Errorf("encode_errors_total = %d after clean write, want 1", got)
	}
}

// TestAssessRejectsUnpackableRows: the HTTP API is a boundary — a word
// the extractor cannot have produced is a 400 naming the row, not a
// fingerprint read as some other symbol and answered.
func TestAssessRejectsUnpackableRows(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	f := append(fingerprint.F(nil), probeFor(t, "Aria", 42).F...)
	if len(f) < 3 {
		t.Fatalf("probe has %d rows, the test wants 3", len(f))
	}
	for _, row := range []int{0, 2, len(f) - 1} {
		bad := append(fingerprint.F(nil), f...)
		bad[row] |= 1 << 63 // the reserved bit features.Packed.Valid checks
		body, err := fingerprint.AppendF(nil, bad)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("row %d:", row)
		if code, msg := postAssess(t, srv, assessContentType, body); code != http.StatusBadRequest || !strings.Contains(msg, want) {
			t.Errorf("reserved bit in row %d: status %d body %q, want 400 mentioning %q", row, code, msg, want)
		}
	}
}

// TestAssessRefusesOtherContentTypes: the request has one format and no
// negotiation. A gateway from before it posts JSON and is told, by status
// and by message, what the service takes — before the body is looked at.
func TestAssessRefusesOtherContentTypes(t *testing.T) {
	svc, _ := testService(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(HandlerWithMetrics(svc, NewServerMetrics(reg)))
	defer srv.Close()

	good, err := fingerprint.AppendF(nil, probeFor(t, "Aria", 43).F)
	if err != nil {
		t.Fatal(err)
	}
	for name, tt := range map[string]struct {
		contentType string
		body        []byte
	}{
		"old gateway's json":        {"application/json", []byte(`{"f":[[60,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]}`)},
		"packed block called json":  {"application/json", good},
		"packed block called text":  {"text/plain", good},
		"packed block called by no": {"", good},
	} {
		code, msg := postAssess(t, srv, tt.contentType, tt.body)
		if code != http.StatusUnsupportedMediaType || !strings.Contains(msg, assessContentType) {
			t.Errorf("%s: status %d body %q, want 415 naming %s", name, code, msg, assessContentType)
		}
	}
	if got, want := requestsByCode(reg), map[string]float64{"415": 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("requests_total by code = %v, want %v", got, want)
	}
}

// fullBank trains a bank over every catalog profile but leaveOut, so
// that one probe of the catalog is a device the service does not know.
func fullBank(t *testing.T, leaveOut string) *Service {
	t.Helper()
	samples := make(map[core.TypeID][]fingerprint.Fingerprint)
	for typ, fps := range devices.GenerateDataset(12, 9) {
		if typ != leaveOut {
			samples[core.TypeID(typ)] = fps
		}
	}
	id, err := core.Train(samples, core.Config{Seed: 4})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	svc := New(id, vulndb.NewDefault())
	svc.SetEndpoints("EdnetCam", []netip.Addr{netip.MustParseAddr("52.20.9.9")})
	return svc
}

// TestRemoteAssessMatchesLocal: the remote call is the local call. For a
// probe of every catalog profile — one of them of a type the bank was
// not trained on — Client → Handler returns the Assessment Service.Assess
// returns (minus the per-record DeviceType the wire does not carry, as
// TestWireSymmetry documents), and an unknown reaches the unknown sink
// as the same fingerprint, by CanonicalKey, either way.
func TestRemoteAssessMatchesLocal(t *testing.T) {
	const stranger = "Aria" // nothing else in the catalog resembles it
	svc := fullBank(t, stranger)
	var (
		mu   sync.Mutex // the remote call's sink runs on the server's goroutine
		sunk []fingerprint.Key
	)
	svc.SetUnknownSink(func(fp fingerprint.Fingerprint) {
		mu.Lock()
		defer mu.Unlock()
		sunk = append(sunk, fp.CanonicalKey())
	})
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}

	if got := len(devices.Catalog()); got != 27 {
		t.Errorf("catalog has %d profiles, the test was written for 27", got)
	}
	for i, p := range devices.Catalog() {
		fp := probeFor(t, p.ID, int64(200+i))
		mu.Lock()
		sunk = sunk[:0]
		mu.Unlock()
		local, err := svc.Assess(fp)
		if err != nil {
			t.Fatalf("%s: Service.Assess: %v", p.ID, err)
		}
		remote, err := client.Assess(fp)
		if err != nil {
			t.Fatalf("%s: Client.Assess: %v", p.ID, err)
		}
		want := local
		want.PermittedIPs = append([]netip.Addr(nil), local.PermittedIPs...)
		want.Vulnerabilities = nil
		for _, v := range local.Vulnerabilities {
			v.DeviceType = ""
			want.Vulnerabilities = append(want.Vulnerabilities, v)
		}
		if !reflect.DeepEqual(remote, want) {
			t.Errorf("%s: remote assessment differs from local:\nremote: %+v\n local: %+v", p.ID, remote, want)
		}
		mu.Lock()
		switch {
		case p.ID == stranger && local.Known:
			t.Fatalf("test setup: the %s probe came back %+v from a bank without it", stranger, local)
		case local.Known && len(sunk) != 0:
			t.Errorf("%s: known device reached the unknown sink %d times", p.ID, len(sunk))
		case !local.Known && (len(sunk) != 2 || sunk[0] != sunk[1] || sunk[0] != fp.CanonicalKey()):
			t.Errorf("%s: unknown sink saw keys %x over local then remote, want %x twice", p.ID, sunk, fp.CanonicalKey())
		}
		mu.Unlock()
	}
}

// TestClientKeepsConnectionAcrossRefusals: a non-200 body longer than
// the 1 KiB the client keeps is read off before the body is closed, so
// the next call rides the same keep-alive connection.
func TestClientKeepsConnectionAcrossRefusals(t *testing.T) {
	page := strings.Repeat("refused ", 1024) // 8 KiB
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, page, http.StatusBadRequest)
	}))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	for i := 0; i < 3; i++ {
		_, err := client.Assess(probeFor(t, "Aria", 45))
		var se *statusError
		if !errors.As(err, &se) || len(se.msg) != 1024 {
			t.Fatalf("call %d: err = %v, want a 400 with 1024 bytes of message kept", i, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("3 refused calls opened %d connections, want 1", got)
	}
}
