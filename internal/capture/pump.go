package capture

import (
	"errors"
	"io"
	"runtime"
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
	// Readers is the reader-goroutine count (0 = GOMAXPROCS), the
	// per-CPU parallelism of the ingest path.
	Readers int
	// Ring is the per-reader ring geometry for pumps that demux a
	// single Source (Start). Attach ignores it — the Fanout was built
	// with its own geometry.
	Ring RingConfig
	// Metrics, if set, receives frame/decode/drop instrumentation.
	Metrics *Metrics
}

// Pump drives reader goroutines over a fanout's rings, decoding frames
// into gateway-ready packets. Construction starts the readers; Wait
// blocks until the traffic stream ends; Close aborts early. Either
// way every goroutine has exited before Wait/Close returns, so the
// pump is leak-clean by construction.
type Pump struct {
	fanout  *Fanout
	src     Source // nil for Attach pumps; closed by Close
	readers sync.WaitGroup
	demux   sync.WaitGroup

	mu      sync.Mutex
	err     error
	metrics *Metrics
}

// Start pumps a single Source through per-reader rings: one demux
// goroutine pulls frames and fans them out by source-MAC hash, and
// cfg.Readers goroutines decode and deliver. The demux is lossless —
// replayed traces and lab feeds must not shed frames; a live
// AF_PACKET-style producer injects into a Fanout directly (Attach)
// and keeps drop semantics there.
func Start(src Source, h Handler, cfg PumpConfig) *Pump {
	cfg.Ring.Lossless = true
	p := Attach(NewFanout(readerCount(cfg.Readers), cfg.Ring), h, cfg)
	p.src = src
	p.demux.Add(1)
	go func() {
		defer p.demux.Done()
		defer p.fanout.Close()
		for {
			f, err := src.Recv()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					p.fail(err)
				}
				return
			}
			if err := p.fanout.Inject(f.Time, f.Data); err != nil {
				if !errors.Is(err, ErrClosed) {
					p.fail(err)
				}
				return
			}
		}
	}()
	return p
}

// Attach starts reader goroutines over an existing fanout whose
// producer side the caller drives (soak injection, a live socket).
// The caller closes the fanout to end the stream.
func Attach(f *Fanout, h Handler, cfg PumpConfig) *Pump {
	p := &Pump{fanout: f, metrics: cfg.Metrics}
	p.metrics.setReaders(len(f.rings))
	for _, r := range f.rings {
		p.readers.Add(1)
		go p.read(r, h)
	}
	return p
}

func readerCount(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
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

func (p *Pump) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Fanout exposes the pump's fanout (drop counters, direct injection).
func (p *Pump) Fanout() *Fanout { return p.fanout }

// Wait blocks until the source is exhausted (Start) or the fanout
// closed (Attach) and every reader has drained and exited, then
// reports the first source error, if any.
func (p *Pump) Wait() error {
	p.demux.Wait()
	p.readers.Wait()
	p.metrics.setReaders(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Close ends the pump early: the source (for Start pumps) and the
// fanout are closed, frames already ringed are still delivered (rings
// drain to EOF, they never discard on close), and every goroutine has
// exited before Close returns.
func (p *Pump) Close() error {
	if p.src != nil {
		_ = p.src.Close()
	}
	_ = p.fanout.Close()
	return p.Wait()
}
