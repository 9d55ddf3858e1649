package iotssp

import (
	"strconv"

	"iotsentinel/internal/obs"
)

// ServerMetrics instruments the service's HTTP handler. Attach via
// HandlerWithMetrics; a nil bundle disables instrumentation.
//
// Exported series:
//
//	iotssp_server_requests_total{code="200|400|405|413|415|500"}  counter
//	iotssp_server_encode_errors_total                             counter
//	iotssp_server_oversized_requests_total                        counter
type ServerMetrics struct {
	requests     map[int]*obs.Counter
	encodeErrors *obs.Counter
	oversized    *obs.Counter
}

// NewServerMetrics registers the server metric family on reg.
func NewServerMetrics(reg *obs.Registry) *ServerMetrics {
	byCode := reg.CounterVec("iotssp_server_requests_total",
		"Requests the service's HTTP handler answered, by status code.", "code")
	// Every status the handler answers with has its series from the
	// start: gateways from before the packed request show as a 415 count
	// that was zero and is not.
	requests := make(map[int]*obs.Counter)
	for _, code := range []int{200, 400, 405, 413, 415, 500} {
		requests[code] = byCode.With(strconv.Itoa(code))
	}
	return &ServerMetrics{
		requests: requests,
		encodeErrors: reg.Counter("iotssp_server_encode_errors_total",
			"Assessment responses whose JSON encode failed mid-write."),
		oversized: reg.Counter("iotssp_server_oversized_requests_total",
			"Assessment requests rejected with 413 for exceeding the body cap."),
	}
}

func (m *ServerMetrics) incRequest(code int) {
	if m != nil {
		m.requests[code].Inc()
	}
}

func (m *ServerMetrics) incEncodeError() {
	if m != nil {
		m.encodeErrors.Inc()
	}
}

func (m *ServerMetrics) incOversized() {
	if m != nil {
		m.oversized.Inc()
	}
}

// ClientMetrics instruments the gateway↔service path: HTTP attempt
// outcomes, backoff sleeps, fast-fails while the breaker is open, and
// every breaker state transition. Attach via Client.Metrics and
// ClientMetrics.ObserveBreaker; a nil bundle disables instrumentation.
//
// Exported series:
//
//	iotssp_client_attempts_total{result="success|error"}          counter
//	iotssp_client_backoff_seconds                                  histogram
//	iotssp_client_breaker_rejections_total                         counter
//	iotssp_breaker_transitions_total{to="closed|open|half-open"}   counter
type ClientMetrics struct {
	attemptOK  *obs.Counter
	attemptErr *obs.Counter
	backoff    *obs.Histogram
	rejections *obs.Counter
	transition map[BreakerState]*obs.Counter
}

// NewClientMetrics registers the client metric family on reg.
func NewClientMetrics(reg *obs.Registry) *ClientMetrics {
	attempts := reg.CounterVec("iotssp_client_attempts_total",
		"HTTP assessment attempts, by result.", "result")
	transitions := reg.CounterVec("iotssp_breaker_transitions_total",
		"Circuit-breaker state transitions, by destination state.", "to")
	return &ClientMetrics{
		attemptOK:  attempts.With("success"),
		attemptErr: attempts.With("error"),
		backoff: reg.Histogram("iotssp_client_backoff_seconds",
			"Backoff sleeps between retry attempts.", nil),
		rejections: reg.Counter("iotssp_client_breaker_rejections_total",
			"Calls failed fast because the circuit breaker was open."),
		transition: map[BreakerState]*obs.Counter{
			BreakerClosed:   transitions.With(BreakerClosed.String()),
			BreakerOpen:     transitions.With(BreakerOpen.String()),
			BreakerHalfOpen: transitions.With(BreakerHalfOpen.String()),
		},
	}
}

// ObserveBreaker subscribes the bundle to b's state transitions. Safe
// on a nil receiver (no-op).
func (m *ClientMetrics) ObserveBreaker(b *CircuitBreaker) {
	if m == nil || b == nil {
		return
	}
	b.SetTransitionObserver(func(_, to BreakerState) {
		m.transition[to].Inc()
	})
}

func (m *ClientMetrics) incAttempt(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.attemptOK.Inc()
	} else {
		m.attemptErr.Inc()
	}
}

func (m *ClientMetrics) incRejection() {
	if m != nil {
		m.rejections.Inc()
	}
}

func (m *ClientMetrics) observeBackoff(seconds float64) {
	if m != nil {
		m.backoff.Observe(seconds)
	}
}
