package gateway

import (
	"time"

	"iotsentinel/internal/obs"
)

// Metrics is the gateway's instrumentation bundle: per-state device
// gauges, quarantine queue depth, assessment outcomes, and the setup-
// capture lifecycle. Attach one via Config.Metrics; a nil bundle
// disables instrumentation with zero overhead.
//
// Exported series:
//
//	gateway_devices{state="monitoring|assessed|quarantined"}  gauge
//	gateway_quarantine_depth                                  gauge
//	gateway_assessments_total{outcome="success|failure"}      counter
//	gateway_quarantine_retries_total{outcome="promoted|failed"} counter
//	gateway_setup_captures_total{event="opened|completed_packet|completed_forced|completed_idle"} counter
//	gateway_handle_packet_seconds                             histogram
//	gateway_assess_queue_depth                                gauge
//	gateway_assess_queue_drops_total                          counter
//	gateway_assess_queue_wait_seconds                         histogram
type Metrics struct {
	devices         map[DeviceState]*obs.Gauge
	quarantineDepth *obs.Gauge
	assessOK        *obs.Counter
	assessFail      *obs.Counter
	retryPromoted   *obs.Counter
	retryFailed     *obs.Counter
	capOpened       *obs.Counter
	capPacket       *obs.Counter
	capForced       *obs.Counter
	capIdle         *obs.Counter
	handleSeconds   *obs.Histogram
	queueDepth      *obs.Gauge
	queueDrops      *obs.Counter
	queueWait       *obs.Histogram
}

// NewMetrics registers the gateway metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	devices := reg.GaugeVec("gateway_devices",
		"Devices known to the gateway, by lifecycle state.", "state")
	assessments := reg.CounterVec("gateway_assessments_total",
		"Assessment attempts applied by the gateway, by outcome.", "outcome")
	retries := reg.CounterVec("gateway_quarantine_retries_total",
		"Quarantine drain attempts, by outcome.", "outcome")
	captures := reg.CounterVec("gateway_setup_captures_total",
		"Setup-capture lifecycle events.", "event")
	return &Metrics{
		devices: map[DeviceState]*obs.Gauge{
			StateMonitoring:  devices.With(StateMonitoring.String()),
			StateAssessed:    devices.With(StateAssessed.String()),
			StateQuarantined: devices.With(StateQuarantined.String()),
		},
		quarantineDepth: reg.Gauge("gateway_quarantine_depth",
			"Fingerprints parked in the quarantine retry queue."),
		assessOK:      assessments.With("success"),
		assessFail:    assessments.With("failure"),
		retryPromoted: retries.With("promoted"),
		retryFailed:   retries.With("failed"),
		capOpened:     captures.With("opened"),
		capPacket:     captures.With("completed_packet"),
		capForced:     captures.With("completed_forced"),
		capIdle:       captures.With("completed_idle"),
		handleSeconds: reg.Histogram("gateway_handle_packet_seconds",
			"HandlePacket data-path latency.", nil),
		queueDepth: reg.Gauge("gateway_assess_queue_depth",
			"Fingerprints waiting on the asynchronous assessment queues, all shards."),
		queueDrops: reg.Counter("gateway_assess_queue_drops_total",
			"Pending assessments evicted (drop-oldest) from a full shard queue and parked in quarantine."),
		queueWait: reg.Histogram("gateway_assess_queue_wait_seconds",
			"Time a finished capture sat on its shard's assessment queue before a drain worker took it.", nil),
	}
}

// observeHandle records one data-path traversal. Safe on nil.
func (m *Metrics) observeHandle(d time.Duration) {
	if m != nil {
		m.handleSeconds.ObserveDuration(d)
	}
}

// HandleLatency exposes the data-path latency histogram (nil when the
// bundle is nil); loadgen reads its snapshot for p99 reporting.
func (m *Metrics) HandleLatency() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.handleSeconds
}

// queueDepthAdd moves the aggregate assess-queue depth gauge. Safe on
// nil.
func (m *Metrics) queueDepthAdd(d int64) {
	if m != nil {
		m.queueDepth.Add(d)
	}
}

// queueClock is when a job enters an assessment queue: no clock is read,
// and the zero time returned, on a nil bundle.
func (m *Metrics) queueClock() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeQueueWait records the wait of a job queued at since, as its
// drain worker takes it. Safe on nil.
func (m *Metrics) observeQueueWait(since time.Time) {
	if m != nil {
		m.queueWait.ObserveDuration(time.Since(since))
	}
}

// incQueueDrop counts one drop-oldest eviction. Safe on nil.
func (m *Metrics) incQueueDrop() {
	if m != nil {
		m.queueDrops.Inc()
	}
}

// stateChange moves one device between per-state gauges; zero values
// mean "no state" (device created or removed). Safe on nil.
func (m *Metrics) stateChange(from, to DeviceState) {
	if m == nil || from == to {
		return
	}
	if g := m.devices[from]; g != nil {
		g.Dec()
	}
	if g := m.devices[to]; g != nil {
		g.Inc()
	}
}

// quarantineDepthAdd moves the retry-queue length gauge. Safe on nil.
func (m *Metrics) quarantineDepthAdd(d int64) {
	if m != nil {
		m.quarantineDepth.Add(d)
	}
}

func (m *Metrics) incAssess(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.assessOK.Inc()
	} else {
		m.assessFail.Inc()
	}
}

func (m *Metrics) incRetry(promoted bool) {
	if m == nil {
		return
	}
	if promoted {
		m.retryPromoted.Inc()
	} else {
		m.retryFailed.Inc()
	}
}

// captureTrigger names how a setup capture completed.
type captureTrigger int

const (
	triggerPacket captureTrigger = iota // completion detected on the device's own packet
	triggerForced                       // FinishSetup / FinishAllSetups
	triggerIdle                         // FinalizeIdleCaptures sweep
)

func (m *Metrics) captureOpened() {
	if m != nil {
		m.capOpened.Inc()
	}
}

func (m *Metrics) captureCompleted(tr captureTrigger) {
	if m == nil {
		return
	}
	switch tr {
	case triggerForced:
		m.capForced.Inc()
	case triggerIdle:
		m.capIdle.Inc()
	default:
		m.capPacket.Inc()
	}
}
