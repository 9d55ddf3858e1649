package capture

import "time"

// Fanout stripes one traffic stream across N rings — one per reader —
// by the FNV-1a hash of each frame's source MAC, PACKET_FANOUT_HASH
// style. Because the gateway shards device state with the same hash,
// a device's packets arrive in order on one reader and land on one
// shard: readers scale across CPUs without ever reordering a device's
// setup sequence.
type Fanout struct {
	rings []*Ring
	mask  uint32
}

// NewFanout builds readers rings with the given geometry. The ring
// count is rounded up to a power of two so the hash maps with a mask,
// mirroring the gateway's shard-count normalization.
func NewFanout(readers int, cfg RingConfig) *Fanout {
	n := 1
	if readers < 1 {
		readers = 1
	}
	for n < readers {
		n <<= 1
	}
	f := &Fanout{rings: make([]*Ring, n), mask: uint32(n - 1)}
	for i := range f.rings {
		f.rings[i] = NewRing(cfg)
	}
	return f
}

// Inject routes one frame to the ring owning its source MAC.
func (f *Fanout) Inject(ts time.Time, frame []byte) error {
	return f.rings[macHash(frame)&f.mask].Inject(ts, frame)
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
