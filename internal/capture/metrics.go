package capture

import "iotsentinel/internal/obs"

// Metrics is the capture layer's nil-safe instrumentation bundle, in
// the same style as the gateway and fleet bundles: a nil *Metrics
// disables every observation at a single branch.
type Metrics struct {
	frames       *obs.Counter
	blocks       *obs.Counter
	bytes        *obs.Counter
	decodeErrors *obs.Counter
	readers      *obs.Gauge
}

// NewMetrics registers the capture metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		frames: reg.Counter("capture_frames_total",
			"Frames decoded and delivered to the data path."),
		blocks: reg.Counter("capture_blocks_total",
			"Ring blocks the readers walked; frames over blocks is the batching the ring reached."),
		bytes: reg.Counter("capture_bytes_total",
			"Bytes of delivered frames."),
		decodeErrors: reg.Counter("capture_decode_errors_total",
			"Frames the packet decoder rejected (foreign or corrupt)."),
		readers: reg.Gauge("capture_readers",
			"Reader goroutines currently pumping."),
	}
}

// addBlock counts one walked block and the frames and bytes delivered
// out of it.
func (m *Metrics) addBlock(frames, bytes uint64) {
	if m == nil {
		return
	}
	m.blocks.Inc()
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
