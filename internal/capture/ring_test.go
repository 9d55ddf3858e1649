package capture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/packet"
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

// parked reports whether r's consumer has parked on the empty ring.
func parked(r *Ring) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.waiting
}

// awaitParked returns once r's consumer has parked.
func awaitParked(t *testing.T, r *Ring) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if parked(r) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the reader never parked")
		}
		runtime.Gosched()
	}
}

// TestRingPartialBlockFlush proves a parked consumer sees frames
// published out of a partial block without waiting for it to fill.
func TestRingPartialBlockFlush(t *testing.T) {
	r := NewRing(RingConfig{Blocks: 4, BlockSize: 1 << 16})
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
	// the waiting-reader fast path must publish it immediately.
	awaitParked(t, r)
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
	r := NewRing(RingConfig{Blocks: blocks, BlockSize: oneFrame, Lossless: true})
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

// TestRingReaderTakesPartialBlock: frames injected while the reader is
// busy with an earlier one gather in the producer's block, and the
// reader claims that block itself when it runs dry. It used to park on
// them: only a later Inject, a Flush or Close made them visible.
func TestRingReaderTakesPartialBlock(t *testing.T) {
	r := NewRing(RingConfig{Lossless: true})
	defer r.Close()
	got := make(chan int64, 4) // one slot a frame: the reader never blocks on it
	hold := make(chan struct{})
	go func() {
		for {
			f, err := r.Recv()
			if err != nil {
				return
			}
			got <- f.Time.UnixNano()
			<-hold
		}
	}()
	awaitParked(t, r)
	inject := func(id int64) {
		t.Helper()
		if err := r.Inject(time.Unix(0, id), frameFor(int(id), 100)); err != nil {
			t.Fatal(err)
		}
	}
	inject(0)
	if id := <-got; id != 0 {
		t.Fatalf("first delivery is frame %d", id)
	}
	// The reader holds frame 0 outside Recv: nothing publishes these.
	for id := int64(1); id <= 3; id++ {
		inject(id)
	}
	close(hold)
	for want := int64(1); want <= 3; want++ {
		select {
		case id := <-got:
			if id != want {
				t.Fatalf("delivery %d is frame %d: order lost", want, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of 3 frames injected behind a busy reader; the rest sit in the producer's block", want-1)
		}
	}
}

// countingReader drains r on a goroutine of its own, counting frames and
// the blocks they were handed over in.
type countingReader struct{ frames, blocks atomic.Int64 }

func countFrom(r *Ring) *countingReader {
	c := new(countingReader)
	go func() {
		for {
			if _, err := r.Recv(); err != nil {
				return
			}
			c.frames.Add(1)
			if r.blockDone() {
				c.blocks.Add(1)
			}
		}
	}()
	return c
}

// burst injects n back-to-back frames of 100 bytes.
func burst(t *testing.T, r *Ring, n int) {
	t.Helper()
	frame := frameFor(1, 100)
	for i := 0; i < n; i++ {
		if err := r.Inject(time.Unix(0, int64(i)), frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRingBurstIntoParkedReaderDropsNothing: a parked reader costs a
// burst one early block — its first frame — and the rest gather behind
// it. When every Inject that found the reader still waking published a
// block of its own, 64 frames into the default lossy ring filled its
// eight blocks with eight frames and dropped the other 56.
//
// How many blocks a burst is handed over in depends on when the reader
// comes back (one that keeps pace with the producer claims a frame or
// two at a time, and holds one block at once doing it), so the count is
// pinned where the schedule is: on one processor the reader runs only
// after the burst, and takes it as the early block and one more.
func TestRingBurstIntoParkedReaderDropsNothing(t *testing.T) {
	trials := func(t *testing.T, maxBlocks int64) {
		r := NewRing(RingConfig{})
		defer r.Close()
		c := countFrom(r)
		for trial := 1; trial <= 100; trial++ {
			awaitParked(t, r)
			before := c.blocks.Load()
			burst(t, r, 64)
			// The first frame cleared the parked flag; it is set again
			// only once the reader has walked everything accepted.
			awaitParked(t, r)
			if d := r.Drops(); d != 0 {
				t.Fatalf("trial %d: %d of 64 frames dropped by a ring with room for thousands", trial, d)
			}
			if got, want := c.frames.Load(), int64(64*trial); got != want {
				t.Fatalf("trial %d: %d frames delivered, want %d", trial, got, want)
			}
			if n := c.blocks.Load() - before; maxBlocks > 0 && n > maxBlocks {
				t.Fatalf("trial %d: the burst was handed over in %d blocks, want at most %d", trial, n, maxBlocks)
			}
		}
	}
	t.Run("free", func(t *testing.T) { trials(t, 0) })
	t.Run("procs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		trials(t, 3)
	})
}

// TestRingBurstTailIsDelivered: after a burst into a parked reader the
// producer goes silent, and every frame still arrives. Publishing only a
// parked reader's first frame is safe because the reader claims the
// block behind it; without that claim the tail would wait for the next
// Inject.
func TestRingBurstTailIsDelivered(t *testing.T) {
	r := NewRing(RingConfig{Lossless: true})
	defer r.Close()
	c := countFrom(r)
	awaitParked(t, r)
	burst(t, r, 64)
	for deadline := time.Now().Add(5 * time.Second); c.frames.Load() < 64; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 64 frames delivered, the producer silent since the burst", c.frames.Load())
		}
		runtime.Gosched()
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
// and requires each device's frames to arrive on one ring — the one its
// source MAC's partition names — in order.
func TestFanoutKeepsPerMACOrder(t *testing.T) {
	f := NewFanout(4, RingConfig{Lossless: true})
	_, shift := packet.Parts(4)
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
				if want := packet.MAC(fr.Data[6:12]).Word().Part(shift); ri != want {
					t.Errorf("device %d on ring %d, its partition names %d", dev, ri, want)
				}
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

// heldReader is a consumer the test steps: it holds every frame it
// receives, outside Recv, until the test takes it from out. held names
// that frame (its id, and in the low bit whether it ended its block), so
// the test can tell a reader that is mid-block from one at a block's end
// from one that has parked.
type heldReader struct {
	r    *Ring
	out  chan Frame // unbuffered
	held atomic.Int64
}

func (h *heldReader) run() {
	defer close(h.out)
	for {
		f, err := h.r.Recv()
		if err != nil {
			return
		}
		v := f.Time.UnixNano() << 1
		if h.r.blockDone() {
			v |= 1
		}
		h.held.Store(v)
		// A copy: the test reads it while this goroutine is back in Recv.
		f.Data = append([]byte(nil), f.Data...)
		h.out <- f
	}
}

// Where a step's burst finds the reader.
const (
	readerParked = iota
	readerMidBlock
	readerAtBlockEnd
	readerRacing // on its way to park; no telling which side of the lock it is
	readerStates
)

// settle waits until the reader holds a frame newer than last or has
// parked, and says which.
func (h *heldReader) settle(t *testing.T, last int64) int {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if v := h.held.Load(); v>>1 > last {
			if v&1 != 0 {
				return readerAtBlockEnd
			}
			return readerMidBlock
		}
		if parked(h.r) {
			return readerParked
		}
		if time.Now().After(deadline) {
			t.Fatalf("the reader neither delivered a frame after %d nor parked", last)
		}
		runtime.Gosched()
	}
}

// TestRingHandoffInterleavings steps a producer and a held reader
// through seeded schedules that put each burst in front of a reader that
// is parked, busy at the end of a block, busy inside one, or racing to
// park, on lossy and lossless rings, and requires of every schedule:
// each accepted frame delivered once, intact and in order; offered =
// delivered + dropped; no drop on a lossless ring; and, the producer
// done, a reader that drains the ring to empty with no Flush.
func TestRingHandoffInterleavings(t *testing.T) {
	size := func(id int64) int { return 14 + int(id*37%180) }
	var seen [readerStates]int
	for seed := int64(1); seed <= 6; seed++ {
		for _, lossless := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			cfg := RingConfig{Blocks: 4 + rng.Intn(5), BlockSize: 512, Lossless: lossless}
			r := NewRing(cfg)
			h := &heldReader{r: r, out: make(chan Frame)}
			go h.run()
			var (
				accepted []int64 // ids the ring took, in order
				next     = int64(1)
				taken    int // frames the test has taken from the reader
			)
			take := func() {
				t.Helper()
				select {
				case f := <-h.out:
					want := accepted[taken]
					if id := f.Time.UnixNano(); id != want {
						t.Fatalf("seed %d lossless=%v: delivery %d is frame %d, want %d", seed, lossless, taken, id, want)
					}
					if !bytes.Equal(f.Data, frameFor(int(want), size(want))) {
						t.Fatalf("seed %d lossless=%v: frame %d mutated in the ring", seed, lossless, want)
					}
					taken++
				case <-time.After(10 * time.Second):
					t.Fatalf("seed %d lossless=%v: frame %d accepted and never delivered", seed, lossless, accepted[taken])
				}
			}
			for step := 0; step < 300; step++ {
				// Place the reader.
				pending := len(accepted) - taken
				n := pending // drain: the reader parks, or races to
				if op := rng.Intn(3); op == 0 && pending > 1 {
					n = rng.Intn(pending) // hold: it keeps a frame
				}
				last := int64(0)
				for ; n > 0; n-- {
					last = accepted[taken]
					take()
				}
				state := readerRacing
				if len(accepted) > taken || rng.Intn(2) == 0 {
					state = h.settle(t, last)
				}
				seen[state]++
				// A lossless Inject into a full ring would wait for this
				// goroutine to take frames. Every consumer-owned block holds
				// an untaken frame, except the one the reader is in, so a
				// burst that keeps untaken frames under Blocks-1 finds room.
				room := 40
				if lossless {
					room = cfg.Blocks - 2 - (len(accepted) - taken)
				}
				for k := rng.Intn(room + 1); k > 0; k-- {
					drops := r.Drops()
					if err := r.Inject(time.Unix(0, next), frameFor(int(next), size(next))); err != nil {
						t.Fatal(err)
					}
					if r.Drops() == drops {
						accepted = append(accepted, next)
					}
					next++
				}
			}
			for taken < len(accepted) {
				take()
			}
			h.settle(t, accepted[len(accepted)-1]) // parked: the ring is empty
			// Frames counts what Inject accepted, Drops what it shed.
			if got, offered := r.Frames(), uint64(next-1); got != uint64(taken) || got+r.Drops() != offered {
				t.Fatalf("seed %d lossless=%v: Frames() = %d and Drops() = %d with %d delivered of %d offered",
					seed, lossless, got, r.Drops(), taken, offered)
			}
			if lossless && r.Drops() != 0 {
				t.Fatalf("seed %d: lossless ring dropped %d frames", seed, r.Drops())
			}
			if !lossless && r.Drops() == 0 {
				t.Fatalf("seed %d: no burst overran the lossy ring; the schedule tests no drop accounting", seed)
			}
			r.Close()
			if _, open := <-h.out; open {
				t.Fatalf("seed %d lossless=%v: a frame delivered after the ring was empty", seed, lossless)
			}
		}
	}
	for state, n := range seen {
		if n == 0 {
			t.Errorf("no burst found the reader in state %d; the schedules miss a case", state)
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
