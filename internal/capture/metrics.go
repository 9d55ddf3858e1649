package capture

import "iotsentinel/internal/obs"

// Metrics is the capture layer's nil-safe instrumentation bundle, in
// the same style as the gateway and fleet bundles: a nil *Metrics
// disables every observation at a single branch.
type Metrics struct {
	frames       *obs.Counter
	bytes        *obs.Counter
	decodeErrors *obs.Counter
	readers      *obs.Gauge
}

// NewMetrics registers the capture metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		frames: reg.Counter("capture_frames_total",
			"Frames decoded and delivered to the data path."),
		bytes: reg.Counter("capture_bytes_total",
			"Bytes of delivered frames."),
		decodeErrors: reg.Counter("capture_decode_errors_total",
			"Frames the packet decoder rejected (foreign or corrupt)."),
		readers: reg.Gauge("capture_readers",
			"Reader goroutines currently pumping."),
	}
}

// addFrames adds one consumed block's delivered frames and bytes.
func (m *Metrics) addFrames(frames, bytes uint64) {
	if m == nil || frames == 0 {
		return
	}
	m.frames.Add(frames)
	m.bytes.Add(bytes)
}

func (m *Metrics) incDecodeError() {
	if m == nil {
		return
	}
	m.decodeErrors.Inc()
}

func (m *Metrics) setReaders(n int) {
	if m == nil {
		return
	}
	m.readers.Set(int64(n))
}

// Frames returns delivered-frame count (0 on a nil bundle).
func (m *Metrics) Frames() uint64 {
	if m == nil {
		return 0
	}
	return m.frames.Value()
}
