package capture

import (
	"sync"
	"time"

	"iotsentinel/internal/packet"
)

// Handler receives each decoded frame on a reader goroutine. Frames
// from one source MAC are always delivered by the same reader, in
// arrival order.
//
// Lifetime: pk is valid only until the handler returns. Each reader
// decodes into one Packet it owns and reuses for the next frame, and
// pk.Payload points into the ring block the frame arrived in, which
// goes back to the producer once the reader has walked it. A handler
// that needs a packet afterwards copies it (the struct and its
// Payload), or calls packet.Decode on bytes it owns; keeping pk or
// pk.Payload is a use-after-free. The gateway data path keeps neither.
type Handler func(ts time.Time, pk *packet.Packet)

// PumpConfig tunes the reader side.
type PumpConfig struct {
	// Readers is read by nothing: Attach runs one reader per ring of
	// the fanout it is given, and the fanout's ring count was fixed by
	// NewFanout. The field stays because the benchmark harness sets it.
	Readers int
	// Metrics, if set, receives frame/decode/drop instrumentation.
	Metrics *Metrics
}

// Pump drives one reader goroutine per ring of a fanout, decoding
// frames into gateway-ready packets. Attach starts the readers; Close
// ends the stream, and every goroutine has exited before it returns,
// so the pump is leak-clean by construction.
type Pump struct {
	fanout  *Fanout
	readers sync.WaitGroup
	metrics *Metrics
}

// Attach starts reader goroutines over a fanout whose producer side
// the caller drives (a live socket, a replayed trace, soak injection).
// It is the only way to build a Pump.
func Attach(f *Fanout, h Handler, cfg PumpConfig) *Pump {
	p := &Pump{fanout: f, metrics: cfg.Metrics}
	p.metrics.setReaders(len(f.rings))
	for _, r := range f.rings {
		p.readers.Add(1)
		go p.read(r, h)
	}
	return p
}

func (p *Pump) read(r *Ring, h Handler) {
	defer p.readers.Done()
	var (
		pk            packet.Packet // decoded in place, reused every frame
		frames, bytes uint64        // delivered since the last flush
	)
	for {
		f, err := r.Recv()
		if err != nil {
			return // io.EOF: ring closed and drained
		}
		if err := packet.DecodeInto(&pk, f.Data); err != nil {
			// Foreign or corrupt frame: count and keep reading, as a
			// real capture loop must (the wire carries chatter from
			// hosts and protocols the decoder does not model).
			p.metrics.incDecodeError()
		} else {
			frames++
			bytes += uint64(len(f.Data))
			h(f.Time, &pk)
		}
		if r.blockDone() {
			// One counter update per block, and always before the
			// reader can park: the shared counters lag a reader by at
			// most the block it is walking.
			p.metrics.addBlock(frames, bytes)
			frames, bytes = 0, 0
		}
	}
}

// Close ends the stream: the fanout is closed, frames already ringed
// are still delivered (rings drain to EOF, they never discard on
// close), and every reader has exited before Close returns. The error
// is always nil; Close keeps io.Closer's shape.
func (p *Pump) Close() error {
	_ = p.fanout.Close()
	p.readers.Wait()
	p.metrics.setReaders(0)
	return nil
}
