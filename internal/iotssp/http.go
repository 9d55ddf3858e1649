package iotssp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/netip"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/vulndb"
)

// The HTTP API's wire. A request is one fingerprint.AppendF block (u16
// rows, then rows × u64 features.Packed, big-endian: the per-fingerprint
// block of a fleet v2 batch and of a journal record). Only F travels; the
// service re-derives F′, so clients cannot desynchronize the two
// representations. The verdict comes back as JSON.
const assessContentType = "application/octet-stream"

type assessResponse struct {
	Type            string     `json:"type"`
	Known           bool       `json:"known"`
	Level           string     `json:"level"`
	PermittedIPs    []string   `json:"permittedIps,omitempty"`
	Vulnerabilities []vulnJSON `json:"vulnerabilities,omitempty"`
}

type vulnJSON struct {
	ID            string `json:"id"`
	Severity      string `json:"severity"`
	Summary       string `json:"summary"`
	FixedInUpdate bool   `json:"fixedInUpdate,omitempty"`
}

// maxAssessBody bounds an assess request body at the largest block the
// codec can carry: the row count and math.MaxUint16 words. A real
// fingerprint is about a hundred bytes; anything over the cap is
// rejected with 413 rather than truncated into a misleading 400.
const maxAssessBody = 2 + 8*math.MaxUint16

// Handler serves the service API:
//
//	POST /v1/assess  — assess one fingerprint (packed-F block in, JSON verdict out)
//	GET  /v1/types   — list known device-types
func Handler(s *Service) http.Handler {
	return HandlerWithMetrics(s, nil)
}

// HandlerWithMetrics is Handler with a server-side obs bundle (nil
// disables instrumentation, identical to Handler).
func HandlerWithMetrics(s *Service, m *ServerMetrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/assess", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			refuse(w, m, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		// One format, no negotiation: a gateway from before the packed
		// request posts JSON and is told what the service takes.
		if ct := r.Header.Get("Content-Type"); ct != assessContentType {
			refuse(w, m, http.StatusUnsupportedMediaType,
				fmt.Sprintf("content type %q: a fingerprint is posted as %s (u16 rows, then rows x u64 packed features, big-endian)", ct, assessContentType))
			return
		}
		// Read one byte past the cap: exactly-at-cap bodies pass, and an
		// over-cap body is reported as what it is (413) instead of being
		// truncated into a misleading decode error.
		body, err := io.ReadAll(io.LimitReader(r.Body, maxAssessBody+1))
		if err != nil {
			refuse(w, m, http.StatusBadRequest, "read body: "+err.Error())
			return
		}
		if len(body) > maxAssessBody {
			m.incOversized()
			refuse(w, m, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxAssessBody))
			return
		}
		fp, err := decodeAssessBody(body)
		if err != nil {
			refuse(w, m, http.StatusBadRequest, err.Error())
			return
		}
		a, err := s.Assess(fp)
		if err != nil {
			refuse(w, m, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, toWire(a), m)
	})
	mux.HandleFunc("/v1/types", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			refuse(w, m, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		types := s.Types()
		names := make([]string, len(types))
		for i, t := range types {
			names[i] = string(t)
		}
		writeJSON(w, map[string][]string{"types": names}, m)
	})
	return mux
}

// decodeAssessBody reads an assess request body: exactly one packed-F
// block (DecodeF checks the row count against the length before it
// allocates, and names the row of a word the extractor cannot produce).
func decodeAssessBody(body []byte) (fingerprint.Fingerprint, error) {
	f, rest, err := fingerprint.DecodeF(body)
	switch {
	case err != nil:
		return fingerprint.Fingerprint{}, err
	case len(rest) != 0:
		return fingerprint.Fingerprint{}, fmt.Errorf("%d bytes after the %d-row fingerprint block", len(rest), len(f))
	case len(f) == 0:
		// A zero-row block is not a fingerprint: letting it through
		// would feed an empty F/F′ into the classifier bank and come
		// back as a meaningless "unknown" instead of a client error.
		return fingerprint.Fingerprint{}, errors.New("empty fingerprint: at least one feature row required")
	}
	return fingerprint.FromPacked(f), nil
}

// refuse answers a request with an error status and counts it.
func refuse(w http.ResponseWriter, m *ServerMetrics, code int, msg string) {
	m.incRequest(code)
	http.Error(w, msg, code)
}

// writeJSON encodes the response, counting (rather than swallowing)
// encode failures: once the header is out there is nothing useful to
// send the client, but a broken response path must show in /metrics.
func writeJSON(w http.ResponseWriter, v any, m *ServerMetrics) {
	m.incRequest(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		m.incEncodeError()
	}
}

func toWire(a Assessment) assessResponse {
	resp := assessResponse{
		Type:  string(a.Type),
		Known: a.Known,
		Level: a.Level.String(),
	}
	for _, ip := range a.PermittedIPs {
		resp.PermittedIPs = append(resp.PermittedIPs, ip.String())
	}
	for _, v := range a.Vulnerabilities {
		resp.Vulnerabilities = append(resp.Vulnerabilities, vulnJSON{
			ID: v.ID, Severity: v.Severity.String(), Summary: v.Summary,
			FixedInUpdate: v.FixedInUpdate,
		})
	}
	return resp
}

// Client is the gateway-side HTTP client for a remote service. The
// zero value (BaseURL only) behaves like a plain single-attempt client;
// production gateways set Timeout, Retry and Breaker so a slow or down
// service degrades the gateway gracefully instead of wedging it.
type Client struct {
	// BaseURL is the service root, e.g. "http://ssp.example.com".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds each HTTP attempt (0 = no per-attempt timeout).
	Timeout time.Duration
	// Retry bounds how transport and 5xx failures are retried; the zero
	// value makes a single attempt.
	Retry RetryPolicy
	// Breaker, if set, fails calls fast while the service is known to
	// be down, admitting a probe once its cooldown elapses.
	Breaker *CircuitBreaker
	// Clock injects time for backoff sleeps (default SystemClock).
	Clock Clock
	// Metrics, if set, counts attempts, backoff sleeps and breaker
	// rejections (see NewClientMetrics; pair with ObserveBreaker for
	// the transition counters).
	Metrics *ClientMetrics
}

var _ Assessor = (*Client)(nil)

// statusError records a non-200 service response; only 5xx responses
// are retryable (4xx means the request itself is wrong).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("iotssp client: status %d: %s", e.code, e.msg)
}

// retryable reports whether a failed attempt may succeed on retry:
// transport errors and 5xx yes, 4xx and malformed payloads no.
//
// Retryability and breaker accounting are deliberately different axes:
// a garbled 200 (decodeError) is not retried — resending the same
// request through the same broken proxy yields the same junk — but it
// still counts against the circuit breaker (see breakerOutcome): a
// service whose successes cannot be decoded is as unusable as one that
// is down, and must eventually trip the breaker. Only a well-formed
// 4xx counts as service-alive, because it proves the service parsed
// and answered the request.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	var de *decodeError
	return !errors.As(err, &de)
}

// breakerOutcome maps an attempt result to what the circuit breaker
// should record: nil (service-alive) for a success or a well-formed
// 4xx, the error itself for transport failures, 5xx, and garbled
// successes — the cases where continuing to call the service cannot
// produce usable assessments.
func breakerOutcome(err error) error {
	if err == nil {
		return nil
	}
	var se *statusError
	if errors.As(err, &se) && se.code < 500 {
		return nil
	}
	return err
}

// decodeError marks a malformed success response (not retryable).
type decodeError struct{ err error }

func (e *decodeError) Error() string { return e.err.Error() }
func (e *decodeError) Unwrap() error { return e.err }

// Assess posts the fingerprint to the remote service, applying the
// client's timeout, retry and breaker configuration.
func (c *Client) Assess(fp fingerprint.Fingerprint) (Assessment, error) {
	return c.AssessContext(context.Background(), fp)
}

// AssessContext is Assess with caller-controlled cancellation: the
// context bounds the whole call including backoff sleeps, while
// c.Timeout bounds each individual HTTP attempt.
func (c *Client) AssessContext(ctx context.Context, fp fingerprint.Fingerprint) (Assessment, error) {
	payload, err := fingerprint.AppendF(make([]byte, 0, 2+8*len(fp.F)), fp.F)
	if err != nil {
		return Assessment{}, fmt.Errorf("iotssp client: %w", err)
	}
	clock := c.Clock
	if clock == nil {
		clock = SystemClock()
	}
	policy := c.Retry.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		if c.Breaker != nil && !c.Breaker.Allow() {
			c.Metrics.incRejection()
			if lastErr != nil {
				return Assessment{}, fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, lastErr)
			}
			return Assessment{}, ErrCircuitOpen
		}
		a, err := c.post(ctx, payload)
		c.Metrics.incAttempt(err == nil)
		if c.Breaker != nil {
			c.Breaker.Record(breakerOutcome(err))
		}
		if err == nil {
			return a, nil
		}
		if !retryable(err) {
			return Assessment{}, err
		}
		lastErr = err
		if attempt < policy.MaxAttempts {
			d := policy.Backoff(attempt)
			c.Metrics.observeBackoff(d.Seconds())
			if serr := clock.Sleep(ctx, d); serr != nil {
				return Assessment{}, fmt.Errorf("iotssp client: %w (last error: %v)", serr, lastErr)
			}
		}
	}
	if policy.MaxAttempts > 1 {
		return Assessment{}, fmt.Errorf("iotssp client: %d attempts failed: %w", policy.MaxAttempts, lastErr)
	}
	return Assessment{}, lastErr
}

// post performs one HTTP attempt under the per-attempt timeout.
func (c *Client) post(ctx context.Context, payload []byte) (Assessment, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/assess", bytes.NewReader(payload))
	if err != nil {
		return Assessment{}, fmt.Errorf("iotssp client: request: %w", err)
	}
	req.Header.Set("Content-Type", assessContentType)
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Assessment{}, fmt.Errorf("iotssp client: post: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		// The rest of a longer error page is read off, bounded too: a
		// body closed unread takes its keep-alive connection with it.
		_, _ = io.CopyN(io.Discard, resp.Body, 64<<10)
		return Assessment{}, &statusError{code: resp.StatusCode, msg: string(msg)}
	}
	var wire assessResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return Assessment{}, &decodeError{err: fmt.Errorf("iotssp client: decode: %w", err)}
	}
	a, err := fromWire(wire)
	if err != nil {
		return Assessment{}, &decodeError{err: err}
	}
	return a, nil
}

func fromWire(w assessResponse) (Assessment, error) {
	a := Assessment{Type: core.TypeID(w.Type), Known: w.Known}
	switch w.Level {
	case "strict":
		a.Level = sdn.Strict
	case "restricted":
		a.Level = sdn.Restricted
	case "trusted":
		a.Level = sdn.Trusted
	default:
		return Assessment{}, fmt.Errorf("iotssp client: unknown level %q", w.Level)
	}
	for _, s := range w.PermittedIPs {
		ip, err := netip.ParseAddr(s)
		if err != nil {
			return Assessment{}, fmt.Errorf("iotssp client: bad permitted ip %q: %w", s, err)
		}
		a.PermittedIPs = append(a.PermittedIPs, ip)
	}
	for _, v := range w.Vulnerabilities {
		sev, err := vulndb.ParseSeverity(v.Severity)
		if err != nil {
			return Assessment{}, fmt.Errorf("iotssp client: vulnerability %s: %w", v.ID, err)
		}
		a.Vulnerabilities = append(a.Vulnerabilities, vulndb.Record{
			ID: v.ID, Severity: sev, Summary: v.Summary, FixedInUpdate: v.FixedInUpdate,
		})
	}
	return a, nil
}
