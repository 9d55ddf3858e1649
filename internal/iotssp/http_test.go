package iotssp

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/obs"
)

// TestAssessRejectsOversizedBody pins the 413 path: a body over the
// cap used to be silently truncated by the LimitReader and then fail
// as a misleading "bad json" 400.
func TestAssessRejectsOversizedBody(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	// A syntactically valid JSON body over the cap: if the handler
	// truncated it, the parse error would masquerade as 400.
	var sb strings.Builder
	sb.WriteString(`{"f":[`)
	row := "[" + strings.Repeat("0,", features.Count-1) + "0]"
	for sb.Len() < maxAssessBody+1024 {
		sb.WriteString(row)
		sb.WriteString(",")
	}
	sb.WriteString(row)
	sb.WriteString(`]}`)

	resp, err := srv.Client().Post(srv.URL+"/v1/assess", "application/json",
		strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}

	// A body exactly at the cap must still be parsed (it fails later,
	// on feature width — not on size).
	at := strings.Repeat(" ", maxAssessBody-len(`{"f":[]}`)) + `{"f":[]}`
	if len(at) != maxAssessBody {
		t.Fatalf("test setup: body is %d bytes, want %d", len(at), maxAssessBody)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/assess", "application/json",
		strings.NewReader(at))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Errorf("exactly-at-cap body rejected with 413")
	}
}

// TestAssessRejectsZeroRowMatrix pins that {"f":[]} is a client error,
// not an empty fingerprint flowing into the classifier bank.
func TestAssessRejectsZeroRowMatrix(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	for _, body := range []string{`{"f":[]}`, `{}`, `{"f":null}`} {
		resp, err := srv.Client().Post(srv.URL+"/v1/assess", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if _, err := fingerprintFromRows(nil); err == nil {
		t.Error("fingerprintFromRows(nil) must error")
	}
	if _, err := fingerprintFromRows([][]float64{}); err == nil {
		t.Error("fingerprintFromRows(empty) must error")
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

// TestAssessRejectsUnpackableRows: the HTTP API keeps float rows, so it
// is a boundary — a row the extractor cannot have produced is a 400
// naming the row and feature, not a fingerprint rounded into some other
// symbol and answered.
func TestAssessRejectsUnpackableRows(t *testing.T) {
	svc, _ := testService(t)
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	row := func(idx int, val string) string {
		cells := make([]string, features.Count)
		for i := range cells {
			cells[i] = "0"
		}
		cells[idx] = val
		return "[" + strings.Join(cells, ",") + "]"
	}
	good := row(features.FeatSize, "60")
	for name, tt := range map[string]struct{ bad, want string }{
		"fractional size":  {row(features.FeatSize, "60.5"), "row 1: features: size"},
		"negative counter": {row(features.FeatDstIPCounter, "-1"), "row 1: features: dst_ip_counter"},
		"flag of two":      {row(features.FeatTCP, "2"), "row 1: features: tcp"},
		"port class four":  {row(features.FeatDstPortClass, "4"), "row 1: features: dst_port_class"},
		"size past field":  {row(features.FeatSize, "1048576"), "row 1: features: size"},
		"short row":        {"[0,0,0]", "row 1 has 3 features"},
	} {
		body := `{"f":[` + good + "," + tt.bad + `]}`
		resp, err := srv.Client().Post(srv.URL+"/v1/assess", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tt.want) {
			t.Errorf("%s: status %d body %q, want 400 mentioning %q", name, resp.StatusCode, msg, tt.want)
		}
	}
}
