package iotssp

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/sdn"
)

// fakeClock is a virtual clock: Sleep records the requested delay and
// advances time instantly, so backoff behaviour is asserted without
// real waiting.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	return nil
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{
		BaseDelay:  100 * time.Millisecond,
		MaxDelay:   5 * time.Second,
		Multiplier: 2,
		JitterFrac: 0.2,
		Seed:       7,
	}
	prevBase := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := p.Backoff(attempt)
		d2 := p.Backoff(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic backoff %v vs %v", attempt, d1, d2)
		}
		base := 100 * time.Millisecond
		for i := 1; i < attempt; i++ {
			base *= 2
			if base >= 5*time.Second {
				base = 5 * time.Second
				break
			}
		}
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if hi > 5*time.Second {
			hi = 5 * time.Second
		}
		if d1 < lo || d1 > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, lo, hi)
		}
		if base > prevBase && d1 > 5*time.Second {
			t.Errorf("attempt %d: backoff %v exceeds MaxDelay", attempt, d1)
		}
		prevBase = base
	}
	// Different seeds must decorrelate the jitter.
	q := p
	q.Seed = 8
	same := 0
	for attempt := 1; attempt <= 10; attempt++ {
		if p.Backoff(attempt) == q.Backoff(attempt) {
			same++
		}
	}
	if same == 10 {
		t.Error("seeds 7 and 8 produced identical jitter sequences")
	}
}

func TestCircuitBreakerLifecycle(t *testing.T) {
	fc := newFakeClock()
	b := NewCircuitBreaker(3, 30*time.Second, fc)

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker must be closed and allowing")
	}
	fail := errors.New("boom")
	for i := 0; i < 2; i++ {
		b.Record(fail)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	b.Record(fail) // third consecutive failure trips it
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}
	fc.Advance(29 * time.Second)
	if b.Allow() {
		t.Fatal("breaker half-opened before cooldown elapsed")
	}
	fc.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker must admit a probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: straight back to open with a fresh cooldown.
	b.Record(fail)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}
	fc.Advance(31 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	// Probe succeeds: closed, and a single failure does not re-trip.
	b.Record(nil)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
	b.Record(fail)
	if b.State() != BreakerClosed {
		t.Error("failure count not reset after close")
	}
}

// cannedAssess is a minimal valid wire response.
const cannedAssess = `{"type":"EdnetCam","known":true,"level":"restricted",` +
	`"vulnerabilities":[{"id":"RPR-1","severity":"critical","summary":"s"}]}`

func TestClientRetriesUntilSuccess(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(cannedAssess))
	}))
	defer srv.Close()

	fc := newFakeClock()
	policy := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, Seed: 3}
	c := &Client{BaseURL: srv.URL, Retry: policy, Clock: fc}
	a, err := c.Assess(fingerprint.Fingerprint{})
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	if a.Type != "EdnetCam" || a.Level != sdn.Restricted {
		t.Errorf("assessment = %+v", a)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (two failures + success)", calls)
	}
	// The sleeps between attempts must match the policy exactly — the
	// injected clock makes them virtual and assertable.
	want := []time.Duration{policy.Backoff(1), policy.Backoff(2)}
	slept := fc.Slept()
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("slept = %v, want %v", slept, want)
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Retry: RetryPolicy{MaxAttempts: 3}, Clock: newFakeClock()}
	_, err := c.Assess(fingerprint.Fingerprint{})
	if err == nil {
		t.Fatal("exhausted retries must error")
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error should report attempt count: %v", err)
	}
}

// TestClientDoesNotRetryClientErrors: a well-formed 4xx is one attempt
// and counts as service-alive for the breaker. The stub answers what a
// service from before the packed request says to the new body — version
// skew costs that one device its verdict, not the gateway its service.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "bad json: invalid character '\\x00' looking for beginning of value", http.StatusBadRequest)
	}))
	defer srv.Close()

	clock := newFakeClock()
	breaker := NewCircuitBreaker(1, 0, clock)
	c := &Client{BaseURL: srv.URL, Retry: RetryPolicy{MaxAttempts: 5}, Breaker: breaker, Clock: clock}
	_, err := c.Assess(fingerprint.Fingerprint{})
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusBadRequest || !strings.Contains(se.msg, "bad json") {
		t.Fatalf("err = %v, want the service's 400 and its message", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (4xx is not retryable)", calls)
	}
	if st := breaker.State(); st != BreakerClosed {
		t.Errorf("breaker = %v after one well-formed 400 at threshold 1, want closed", st)
	}
}

func TestClientPerAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hang until the client gives up or the test ends
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release) // LIFO: unblock the handler before srv.Close waits

	c := &Client{BaseURL: srv.URL, Timeout: 50 * time.Millisecond, Clock: newFakeClock()}
	start := time.Now()
	_, err := c.Assess(fingerprint.Fingerprint{})
	if err == nil {
		t.Fatal("hung server must time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestClientBreakerFailsFastAndRecovers(t *testing.T) {
	var mu sync.Mutex
	calls, failing := 0, true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		down := failing
		mu.Unlock()
		if down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(cannedAssess))
	}))
	defer srv.Close()

	fc := newFakeClock()
	c := &Client{
		BaseURL: srv.URL,
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond},
		Breaker: NewCircuitBreaker(2, 30*time.Second, fc),
		Clock:   fc,
	}
	// First call: both attempts fail, tripping the 2-failure breaker.
	if _, err := c.Assess(fingerprint.Fingerprint{}); err == nil {
		t.Fatal("down service must error")
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	// Second call: breaker open — fail fast, no request on the wire.
	_, err := c.Assess(fingerprint.Fingerprint{})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls != 2 {
		t.Fatalf("open breaker let a request through (calls = %d)", calls)
	}
	// After the cooldown the half-open probe goes through and closes
	// the breaker on success.
	mu.Lock()
	failing = false
	mu.Unlock()
	fc.Advance(31 * time.Second)
	a, err := c.Assess(fingerprint.Fingerprint{})
	if err != nil {
		t.Fatalf("recovered service: %v", err)
	}
	if a.Type != "EdnetCam" {
		t.Errorf("assessment = %+v", a)
	}
	if c.Breaker.State() != BreakerClosed {
		t.Errorf("breaker state = %v, want closed", c.Breaker.State())
	}
}
