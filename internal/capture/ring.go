package capture

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The ring mirrors AF_PACKET's TPACKET_V3 mmap layout in pure Go:
// a fixed arena of fixed-size blocks, each owned at any instant by
// either the producer (the kernel side in a real socket) or the
// consumer (user space), with ownership flipping through one atomic
// status word. The producer appends frames into its current block and
// publishes it when it fills, or at once when the frame is the first
// into a ring whose reader is parked; the consumer walks a published
// block's frames without any lock, releases the whole block back in one
// store, and out of published blocks takes the producer's partial block
// itself — so no frame waits on a timer (tp_retire_blk_tov exists
// because user space cannot reach into the kernel's block). A full ring
// never blocks the producer unless it asked for lossless delivery:
// frames are dropped and counted, exactly the kernel's behaviour when
// user space falls behind.

// Block ownership states (tp_block_status).
const (
	blockProducer uint32 = iota // being filled; consumer must not touch
	blockConsumer               // published; producer must not touch
)

// Per-frame header inside a block: 8-byte unix-nanos timestamp then a
// 4-byte little-endian length, with the whole frame padded to 8 bytes
// (tpacket3_hdr's tp_next_offset alignment).
const frameHeaderLen = 12

// Ring geometry defaults: 8 blocks of 64 KiB is enough for ~3k typical
// setup-phase frames in flight per reader.
const (
	DefaultBlockSize = 64 << 10
	DefaultBlocks    = 8
)

// ErrFrameTooBig reports a frame larger than one block.
var ErrFrameTooBig = errors.New("capture: frame exceeds ring block size")

// cacheLine pads what the producer writes away from what the consumer
// writes.
const cacheLine = 64

type ringBlock struct {
	status atomic.Uint32
	buf    []byte
	// Producer-side fill state; read by the consumer only after the
	// status word is flipped (the atomic store/load pair orders them).
	w       int
	nframes int
	_       [cacheLine]byte // keeps the next block's status off this line
}

// RingConfig tunes one ring (zero values select the defaults).
type RingConfig struct {
	// Blocks and BlockSize fix the arena geometry.
	Blocks    int
	BlockSize int
	// Lossless makes Inject wait for the consumer instead of dropping
	// when the ring is full. Replay and conformance runs use it; live
	// capture keeps the kernel's drop semantics.
	Lossless bool
}

func (c RingConfig) withDefaults() RingConfig {
	if c.Blocks <= 0 {
		c.Blocks = DefaultBlocks
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	return c
}

// Ring is one producer→consumer block ring. Any number of goroutines
// may Inject (a short mutex serializes the fill, as the kernel's
// per-CPU queue discipline does); exactly one goroutine must Recv.
// The fields are grouped by who writes them, a cache line apart.
type Ring struct {
	// Set by NewRing, read-only afterwards. wake carries the token an
	// Inject or Close owes a parked consumer; space signals producers
	// that a block was released (capacity 1: a signal nobody waits for
	// is kept).
	cfg    RingConfig
	blocks []ringBlock
	wake   chan struct{}
	space  chan struct{}
	_      [cacheLine]byte

	// Producer state, under mu. timer is the stopped wait timer a
	// blocked lossless Inject takes and puts back (nil while taken).
	// waiting is set by the consumer as it parks on an empty ring.
	// frames counts the frames Inject accepted; drops, written under mu
	// as well, is an atomic only so that Drops reads it without mu.
	mu      sync.Mutex
	pi      int
	timer   *time.Timer
	waiting bool
	closed  bool
	frames  uint64
	drops   atomic.Uint64
	_       [cacheLine]byte

	// Consumer state, single-goroutine: the next block to take, the
	// block being read (-1 when none), its unread bytes — a slice of
	// the consumer's own, so walking a block reads nothing the producer
	// writes — and the frames left in them.
	ci   int
	cur  int
	rest []byte
	rem  int
	_    [cacheLine]byte
}

// NewRing allocates the block arena.
func NewRing(cfg RingConfig) *Ring {
	cfg = cfg.withDefaults()
	r := &Ring{
		cfg:    cfg,
		blocks: make([]ringBlock, cfg.Blocks),
		cur:    -1,
		wake:   make(chan struct{}, 1),
		space:  make(chan struct{}, 1),
	}
	for i := range r.blocks {
		r.blocks[i].buf = make([]byte, cfg.BlockSize)
	}
	return r
}

// Inject appends one frame on the producer side. With a full ring it
// drops (counted) unless the ring is lossless, in which case it waits
// for the consumer to release a block. Dropped frames return nil: the
// producer is not expected to care, the drop counter is the record.
func (r *Ring) Inject(ts time.Time, frame []byte) error {
	need := (frameHeaderLen + len(frame) + 7) &^ 7
	if need > r.cfg.BlockSize {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooBig, len(frame), r.cfg.BlockSize)
	}
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return ErrClosed
		}
		b := &r.blocks[r.pi]
		if b.status.Load() == blockProducer {
			if b.w+need > len(b.buf) {
				r.publishLocked(b)
				continue
			}
			putFrame(b.buf[b.w:], ts, frame)
			b.w += need
			b.nframes++
			r.frames++
			// A parked reader gets this frame at once, and only this
			// one: those behind it gather in the next block until the
			// reader comes back and claims it (awaitBlock).
			if r.waiting {
				r.publishLocked(b)
				r.wakeLocked()
			}
			r.mu.Unlock()
			return nil
		}
		// Ring full: every block is published and unread.
		if !r.cfg.Lossless {
			r.drops.Add(1)
			r.mu.Unlock()
			return nil
		}
		r.waitSpaceLocked()
	}
}

// waitSpaceLocked parks a lossless producer until the consumer releases
// a block or a millisecond passes (to re-check closed; it also covers a
// space signal consumed by a sibling producer). It drops mu while
// parked. The timer is reused across calls: on a ring whose reader is
// the bottleneck every block's worth of frames ends in one of these
// waits.
func (r *Ring) waitSpaceLocked() {
	t := r.timer
	r.timer = nil
	if t == nil {
		t = time.NewTimer(time.Millisecond)
	} else {
		t.Reset(time.Millisecond)
	}
	r.mu.Unlock()
	select {
	case <-r.space:
		if !t.Stop() {
			select { // fired meanwhile: leave the channel empty for Reset
			case <-t.C:
			default:
			}
		}
	case <-t.C:
	}
	r.mu.Lock()
	r.timer = t
}

func putFrame(dst []byte, ts time.Time, frame []byte) {
	n := uint64(ts.UnixNano())
	for i := 0; i < 8; i++ {
		dst[i] = byte(n >> (8 * i))
	}
	l := uint32(len(frame))
	dst[8] = byte(l)
	dst[9] = byte(l >> 8)
	dst[10] = byte(l >> 16)
	dst[11] = byte(l >> 24)
	copy(dst[frameHeaderLen:], frame)
}

// publishLocked flips the current block to the consumer and advances
// the producer cursor. Empty blocks are not published, and neither is a
// block the producer does not own: on a full ring blocks[pi] is the
// consumer's oldest unread block (Flush and Close get here without
// Inject's ownership check), and publishing it again would move pi past
// a block that was never filled.
func (r *Ring) publishLocked(b *ringBlock) {
	if b.status.Load() != blockProducer || b.nframes == 0 {
		return
	}
	b.status.Store(blockConsumer)
	r.pi = (r.pi + 1) % len(r.blocks)
}

// wakeLocked hands the parked consumer its token: one per park, so the
// send finds the slot free.
func (r *Ring) wakeLocked() {
	r.waiting = false
	r.wake <- struct{}{}
}

// Flush publishes the partially filled current block, if any. No
// reader needs it: one that runs dry claims the partial block itself.
func (r *Ring) Flush() {
	r.mu.Lock()
	r.publishLocked(&r.blocks[r.pi])
	r.mu.Unlock()
}

// Close publishes any partial block and marks the ring closed: Inject
// fails with ErrClosed, Recv drains what was published and then
// returns io.EOF. Safe to call more than once and from either side.
func (r *Ring) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.publishLocked(&r.blocks[r.pi])
		r.closed = true
		if r.waiting {
			r.wakeLocked()
		}
	}
	r.mu.Unlock()
	return nil
}

// releaseHook is nil outside tests. The conformance suite sets it to
// scribble over every block the consumer hands back (export_test.go),
// which turns any pointer kept into ring memory into a visible diff.
var releaseHook func(block []byte)

// Recv returns the next frame. The returned Frame.Data aliases the
// block buffer and is valid only until the next Recv call. Blocks
// until a frame arrives; returns io.EOF once the ring is closed and
// fully drained.
func (r *Ring) Recv() (Frame, error) {
	for {
		if r.rem > 0 {
			ts, data, adv := getFrame(r.rest)
			r.rest = r.rest[adv:]
			r.rem--
			return Frame{Time: ts, Data: data}, nil
		}
		if r.cur >= 0 {
			// Whole block consumed: hand it back in one store.
			b := &r.blocks[r.cur]
			if releaseHook != nil {
				releaseHook(b.buf[:b.w])
			}
			b.w = 0
			b.nframes = 0
			b.status.Store(blockProducer)
			r.cur = -1
			select {
			case r.space <- struct{}{}:
			default:
			}
		}
		b := &r.blocks[r.ci]
		if !r.awaitBlock(b) {
			return Frame{}, io.EOF
		}
		r.cur = r.ci
		r.ci = (r.ci + 1) % len(r.blocks)
		r.rest = b.buf[:b.w]
		r.rem = b.nframes
	}
}

// awaitBlock returns once b, the consumer's next block, is published,
// or reports false at the end of a closed ring. Out of published blocks
// b is the block being filled, and under the producer's lock the
// consumer either publishes it to itself or, finding it empty, sets
// waiting and parks: every Inject takes that lock, so a frame is in the
// block claimed here or finds waiting set — a reader never parks on
// frames, and none waits for a later Inject or a Flush to be seen.
func (r *Ring) awaitBlock(b *ringBlock) bool {
	for b.status.Load() != blockConsumer {
		r.mu.Lock()
		switch {
		case b.status.Load() == blockConsumer:
			// Filled and published while the lock was taken.
		case b.nframes > 0:
			r.publishLocked(b)
		case r.closed:
			// Close publishes before it sets closed, so an empty block
			// on a closed ring is the end.
			r.mu.Unlock()
			return false
		default:
			r.waiting = true
			r.mu.Unlock()
			<-r.wake
			continue
		}
		r.mu.Unlock()
	}
	return true
}

// blockDone reports whether the frame Recv last returned was the last
// of its block: the next Recv hands the block back and may park.
func (r *Ring) blockDone() bool { return r.rem == 0 }

func getFrame(src []byte) (time.Time, []byte, int) {
	var n uint64
	for i := 0; i < 8; i++ {
		n |= uint64(src[i]) << (8 * i)
	}
	l := int(uint32(src[8]) | uint32(src[9])<<8 | uint32(src[10])<<16 | uint32(src[11])<<24)
	adv := (frameHeaderLen + l + 7) &^ 7
	return time.Unix(0, int64(n)).UTC(), src[frameHeaderLen : frameHeaderLen+l], adv
}

// Drops returns the number of frames shed because the consumer fell
// behind a lossy ring.
func (r *Ring) Drops() uint64 { return r.drops.Load() }

// Frames returns the number of frames accepted by Inject.
func (r *Ring) Frames() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames
}
