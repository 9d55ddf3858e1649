package capture

import (
	"time"

	"iotsentinel/internal/packet"
)

// Fanout stripes one traffic stream across N rings — one per reader —
// by the source MAC's partition (packet.MACWord.Part), as
// PACKET_FANOUT_HASH does by a flow hash. The gateway's shards and the
// switch's port stripes split by the same partition, at finer grain: a
// device's packets arrive in order on one reader, and each reader's
// devices fill shards and stripes no other reader takes, so readers
// scale across CPUs without ever reordering a device's setup sequence.
type Fanout struct {
	rings []*Ring
	shift uint8
}

// NewFanout builds readers rings with the given geometry. The ring
// count is rounded up to a power of two (packet.Parts), as the gateway's
// shard count is.
func NewFanout(readers int, cfg RingConfig) *Fanout {
	n, shift := packet.Parts(readers)
	f := &Fanout{rings: make([]*Ring, n), shift: shift}
	for i := range f.rings {
		f.rings[i] = NewRing(cfg)
	}
	return f
}

// Inject routes one frame to the ring owning its source MAC (Ethernet
// bytes 6..12). A runt frame has none and goes to ring 0, whose reader
// counts its decode error.
func (f *Fanout) Inject(ts time.Time, frame []byte) error {
	var src packet.MAC
	if len(frame) >= 12 {
		src = packet.MAC(frame[6:12])
	}
	return f.rings[src.Word().Part(f.shift)].Inject(ts, frame)
}

// Rings exposes the per-reader rings; Attach runs one reader per ring.
func (f *Fanout) Rings() []*Ring { return f.rings }

// Flush publishes every ring's partial block.
func (f *Fanout) Flush() {
	for _, r := range f.rings {
		r.Flush()
	}
}

// Close closes every ring; readers drain and hit io.EOF.
func (f *Fanout) Close() error {
	for _, r := range f.rings {
		_ = r.Close()
	}
	return nil
}

// Drops sums the per-ring drop counters.
func (f *Fanout) Drops() uint64 {
	var n uint64
	for _, r := range f.rings {
		n += r.Drops()
	}
	return n
}
