package capture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/testutil"
)

func frameFor(i int, size int) []byte {
	if size < 14 {
		size = 14
	}
	f := make([]byte, size)
	// dst | src MACs; src varies so fanout hashing spreads.
	binary.BigEndian.PutUint32(f[6:10], uint32(i))
	f[10] = byte(i >> 8)
	f[11] = byte(i)
	binary.BigEndian.PutUint16(f[12:14], 0x0800)
	for j := 14; j < size; j++ {
		f[j] = byte(i + j)
	}
	return f
}

// TestRingDeliversInOrder pushes frames through a small ring across
// goroutines and requires bitwise-identical, in-order delivery.
func TestRingDeliversInOrder(t *testing.T) {
	r := NewRing(RingConfig{Blocks: 4, BlockSize: 1 << 12, Lossless: true})
	const n = 5000
	go func() {
		for i := 0; i < n; i++ {
			ts := time.Unix(1460100000, int64(i)).UTC()
			if err := r.Inject(ts, frameFor(i, 60+i%200)); err != nil {
				t.Errorf("inject %d: %v", i, err)
				return
			}
		}
		r.Close()
	}()
	for i := 0; i < n; i++ {
		f, err := r.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := frameFor(i, 60+i%200)
		if !bytes.Equal(f.Data, want) {
			t.Fatalf("frame %d corrupted in transit", i)
		}
		if got := f.Time.UnixNano(); got != time.Unix(1460100000, int64(i)).UnixNano() {
			t.Fatalf("frame %d timestamp: got %d", i, got)
		}
	}
	if _, err := r.Recv(); err != io.EOF {
		t.Fatalf("after close+drain want io.EOF, got %v", err)
	}
	if d := r.Drops(); d != 0 {
		t.Fatalf("lossless ring dropped %d frames", d)
	}
}

// TestRingDropsWhenFull fills a lossy ring with no consumer and
// requires drop-counting, never blocking.
func TestRingDropsWhenFull(t *testing.T) {
	r := NewRing(RingConfig{Blocks: 2, BlockSize: 1 << 10})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if err := r.Inject(time.Now(), frameFor(i, 100)); err != nil {
				t.Errorf("inject: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lossy Inject blocked on a full ring")
	}
	if r.Drops() == 0 {
		t.Fatal("expected drops on a consumer-less ring")
	}
	if r.Drops()+uint64(ringCapacityFrames(r)) < 1000 {
		// Sanity: accepted + dropped covers the offered load.
		t.Fatalf("drops %d implausible", r.Drops())
	}
	r.Close()
}

func ringCapacityFrames(r *Ring) int {
	per := (frameHeaderLen + 100 + 7) &^ 7
	return len(r.blocks) * (r.cfg.BlockSize / per)
}

// TestRingFrameTooBig rejects frames larger than one block.
func TestRingFrameTooBig(t *testing.T) {
	r := NewRing(RingConfig{Blocks: 2, BlockSize: 256})
	if err := r.Inject(time.Now(), make([]byte, 512)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestRingInjectAfterClose fails with ErrClosed.
func TestRingInjectAfterClose(t *testing.T) {
	r := NewRing(RingConfig{})
	r.Close()
	if err := r.Inject(time.Now(), frameFor(0, 60)); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestRingPartialBlockFlush proves a parked consumer sees frames
// published out of a partial block without waiting for it to fill.
func TestRingPartialBlockFlush(t *testing.T) {
	r := NewRing(RingConfig{Blocks: 4, BlockSize: 1 << 16, Retire: time.Hour})
	got := make(chan Frame, 1)
	go func() {
		f, err := r.Recv()
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got <- f
	}()
	// Wait for the consumer to park, then inject exactly one frame:
	// the waiting-reader fast path must publish immediately even with
	// an effectively infinite retire timeout.
	for i := 0; r.waiting.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if err := r.Inject(time.Unix(42, 0), frameFor(7, 80)); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if !bytes.Equal(f.Data, frameFor(7, 80)) {
			t.Fatal("frame corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial block never published to a waiting reader")
	}
	r.Close()
}

// TestRingFlushOnFullRing: with every block published and unread,
// blocks[pi] belongs to the consumer. Flush (and Close, through the same
// publish) used to publish it again and step pi past a block that was
// never filled, so the frames injected next overtook — or, with too few
// of them to wrap the ring, never reached — the reader.
func TestRingFlushOnFullRing(t *testing.T) {
	const blocks, size = 8, 80
	oneFrame := (frameHeaderLen + size + 7) &^ 7
	r := NewRing(RingConfig{Blocks: blocks, BlockSize: oneFrame, Lossless: true, Retire: time.Hour})
	// The reader stays parked while the producer fills all eight
	// one-frame blocks; the first Flush publishes the last of them.
	for i := 0; i < blocks; i++ {
		if err := r.Inject(time.Unix(0, int64(i)), frameFor(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	r.Flush() // full ring: nothing of the producer's to publish
	go func() {
		defer r.Close()
		for i := blocks; i < 2*blocks; i++ {
			if err := r.Inject(time.Unix(0, int64(i)), frameFor(i, size)); err != nil {
				t.Errorf("inject %d: %v", i, err)
				return
			}
		}
	}()
	// A wedged ring parks Recv forever; closing it turns the hang into
	// a short count.
	watchdog := time.AfterFunc(10*time.Second, func() { r.Close() })
	defer watchdog.Stop()
	n := 0
	for {
		fr, err := r.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Data, frameFor(n, size)) {
			t.Fatalf("delivery %d is not frame %d: order lost", n, n)
		}
		n++
	}
	if n != 2*blocks {
		t.Fatalf("delivered %d of %d frames", n, 2*blocks)
	}
}

// TestRingLosslessWaitAllocatesNothing pins the timer reuse: a lossless
// producer that keeps running into a full ring (two one-frame blocks, a
// reader draining behind it) waits for space dozens of times a run and
// must not allocate for any of them.
func TestRingLosslessWaitAllocatesNothing(t *testing.T) {
	frame := frameFor(1, 100)
	r := NewRing(RingConfig{Blocks: 2, BlockSize: 128, Lossless: true})
	var (
		wg       sync.WaitGroup
		received atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := r.Recv(); err != nil {
				return
			}
			received.Add(1)
		}
	}()
	testutil.AssertZeroAllocs(t, "lossless Inject into a full ring", func() {
		target := received.Load() + 64
		for i := 0; i < 64; i++ {
			if err := r.Inject(time.Unix(0, int64(i)), frame); err != nil {
				t.Fatal(err)
			}
		}
		r.Flush()
		for received.Load() < target {
			runtime.Gosched()
		}
	})
	r.Close()
	wg.Wait()
}

// TestRingConcurrentProducers hammers Inject from several goroutines
// and requires every accepted frame to arrive intact (per-producer
// order is preserved by the producer mutex; cross-producer order is
// unspecified).
func TestRingConcurrentProducers(t *testing.T) {
	r := NewRing(RingConfig{Blocks: 8, BlockSize: 1 << 12, Lossless: true})
	const producers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := p*per + i
				if err := r.Inject(time.Unix(0, int64(id)), frameFor(id, 64)); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	go func() { wg.Wait(); r.Close() }()

	seen := make(map[int]bool, producers*per)
	for {
		f, err := r.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		id := int(f.Time.UnixNano())
		if !bytes.Equal(f.Data, frameFor(id, 64)) {
			t.Fatalf("frame %d corrupted", id)
		}
		if seen[id] {
			t.Fatalf("frame %d delivered twice", id)
		}
		seen[id] = true
	}
	if len(seen) != producers*per {
		t.Fatalf("delivered %d of %d frames", len(seen), producers*per)
	}
}

// TestFanoutKeepsPerMACOrder injects interleaved per-device sequences
// and requires each device's frames to arrive on one ring, in order.
func TestFanoutKeepsPerMACOrder(t *testing.T) {
	f := NewFanout(4, RingConfig{Lossless: true})
	const devices, per = 32, 50
	go func() {
		for i := 0; i < per; i++ {
			for d := 0; d < devices; d++ {
				frame := frameFor(d, 60)
				frame[14] = byte(i) // sequence number in payload
				if err := f.Inject(time.Unix(0, int64(i)), frame); err != nil {
					t.Errorf("inject: %v", err)
					return
				}
			}
		}
		f.Close()
	}()

	var mu sync.Mutex
	lastSeq := make(map[uint32]int)
	ringOf := make(map[uint32]int)
	var wg sync.WaitGroup
	for ri, r := range f.Rings() {
		wg.Add(1)
		go func(ri int, r *Ring) {
			defer wg.Done()
			for {
				fr, err := r.Recv()
				if err != nil {
					return
				}
				dev := binary.BigEndian.Uint32(fr.Data[6:10])
				seq := int(fr.Data[14])
				mu.Lock()
				if prev, ok := ringOf[dev]; ok && prev != ri {
					t.Errorf("device %d split across rings %d and %d", dev, prev, ri)
				}
				ringOf[dev] = ri
				if last, ok := lastSeq[dev]; ok && seq != last+1 {
					t.Errorf("device %d: seq %d after %d", dev, seq, last)
				}
				lastSeq[dev] = seq
				mu.Unlock()
			}
		}(ri, r)
	}
	wg.Wait()
	if len(lastSeq) != devices {
		t.Fatalf("saw %d devices, want %d", len(lastSeq), devices)
	}
	for dev, last := range lastSeq {
		if last != per-1 {
			t.Errorf("device %d ended at seq %d, want %d", dev, last, per-1)
		}
	}
}

// FuzzRingDelivery drives arbitrary frame sequences through a small
// ring and requires lossless, bitwise-identical, in-order delivery —
// the capture-reader analogue of the codec fuzzers in make fuzz.
func FuzzRingDelivery(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03}, uint8(3), uint8(2), uint8(0))
	f.Add(bytes.Repeat([]byte{0xab}, 300), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{}, uint8(16), uint8(4), uint8(3))
	f.Add(bytes.Repeat([]byte{0xcd}, 1000), uint8(40), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seedFrame []byte, count, geom, flushEvery uint8) {
		if len(seedFrame) > 1<<10 {
			seedFrame = seedFrame[:1<<10]
		}
		blocks := 2 + int(geom%6)
		r := NewRing(RingConfig{Blocks: blocks, BlockSize: 2 << 10, Lossless: true})
		n := 1 + int(count)
		frames := make([][]byte, n)
		for i := range frames {
			fr := make([]byte, len(seedFrame)+i%7)
			copy(fr, seedFrame)
			for j := len(seedFrame); j < len(fr); j++ {
				fr[j] = byte(i)
			}
			frames[i] = fr
		}
		errc := make(chan error, 1)
		go func() {
			defer r.Close()
			for i, fr := range frames {
				if len(fr)+frameHeaderLen > 2<<10 {
					continue
				}
				if err := r.Inject(time.Unix(0, int64(i)), fr); err != nil {
					errc <- fmt.Errorf("inject %d: %w", i, err)
					return
				}
				// Flush races the consumer: it lands on partial blocks,
				// empty blocks and a full ring alike.
				if flushEvery > 0 && i%int(flushEvery) == 0 {
					r.Flush()
				}
			}
			errc <- nil
		}()
		i := 0
		for {
			fr, err := r.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for len(frames[i])+frameHeaderLen > 2<<10 {
				i++ // skipped by the producer
			}
			if !bytes.Equal(fr.Data, frames[i]) {
				t.Fatalf("frame %d mutated in the ring", i)
			}
			i++
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})
}
