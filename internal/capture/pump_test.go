package capture

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/testutil"
)

func marshalARP(t *testing.T, mac packet.MAC, seq int) []byte {
	t.Helper()
	src := netip.AddrFrom4([4]byte{10, 0, byte(seq >> 8), byte(seq)})
	pk := packet.NewARP(mac, src, netip.AddrFrom4([4]byte{10, 0, 0, 1}))
	frame, err := pk.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return frame
}

// TestPumpStartDelivers injects frames from several MACs into a fanout
// of four rings and requires per-MAC in-order delivery and a full
// frame count.
func TestPumpStartDelivers(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	macs := []packet.MAC{
		{0x02, 0, 0, 0, 0, 1},
		{0x02, 0, 0, 0, 0, 2},
		{0x02, 0, 0, 0, 0, 3},
		{0x02, 0, 0, 0, 0, 4},
	}
	const per = 200
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var mu sync.Mutex
	lastSeq := make(map[packet.MAC]int)
	total := 0
	f := NewFanout(4, RingConfig{Lossless: true})
	p := Attach(f, func(ts time.Time, pk *packet.Packet) {
		seq := int(pk.SrcIP.As4()[2])<<8 | int(pk.SrcIP.As4()[3])
		mu.Lock()
		if last, ok := lastSeq[pk.SrcMAC]; ok && seq != last+1 {
			t.Errorf("mac %s: seq %d after %d — per-MAC order broken", pk.SrcMAC, seq, last)
		}
		lastSeq[pk.SrcMAC] = seq
		total++
		mu.Unlock()
	}, PumpConfig{Metrics: m})
	for i := 0; i < per; i++ {
		for _, mac := range macs {
			// The source IP's low bytes carry the sequence number.
			if err := f.Inject(time.Unix(0, int64(i)), marshalARP(t, mac, i)); err != nil {
				t.Fatalf("inject: %v", err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("pump: %v", err)
	}
	if total != per*len(macs) {
		t.Fatalf("delivered %d frames, want %d", total, per*len(macs))
	}
	if got := m.Frames(); got != uint64(per*len(macs)) {
		t.Fatalf("metrics counted %d frames, want %d", got, per*len(macs))
	}
}

// TestPumpCountsDecodeErrors requires corrupt frames to be counted and
// skipped, never to kill the reader.
func TestPumpCountsDecodeErrors(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	delivered := 0
	f := NewFanout(1, RingConfig{Lossless: true})
	p := Attach(f, func(time.Time, *packet.Packet) { delivered++ }, PumpConfig{Metrics: m})

	mac := packet.MAC{0x02, 0, 0, 0, 0, 9}
	if err := f.Inject(time.Now(), []byte{0xde, 0xad}); err != nil { // runt
		t.Fatal(err)
	}
	if err := f.Inject(time.Now(), marshalARP(t, mac, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("pump: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d packets, want 1", delivered)
	}
	if v := m.decodeErrors.Value(); v != 1 {
		t.Fatalf("decode errors %d, want 1", v)
	}
}

// TestPumpAttachDrainsOnClose injects into a fanout directly, closes
// it mid-stream, and requires already-ringed frames to still deliver.
func TestPumpAttachDrainsOnClose(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	f := NewFanout(2, RingConfig{Lossless: true})
	var mu sync.Mutex
	got := 0
	p := Attach(f, func(time.Time, *packet.Packet) {
		mu.Lock()
		got++
		mu.Unlock()
	}, PumpConfig{})
	mac := packet.MAC{0x02, 0, 0, 0, 0, 5}
	const n = 100
	for i := 0; i < n; i++ {
		if err := f.Inject(time.Unix(0, int64(i)), marshalARP(t, mac, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got != n {
		t.Fatalf("delivered %d of %d frames after close", got, n)
	}
}

// TestPumpPacketAliasesRingBlock states the Handler lifetime contract
// as a test, and checks the poison hook the conformance suite leans on
// really fires: a Payload kept past the handler's return reads poison
// once the reader has handed its block back.
func TestPumpPacketAliasesRingBlock(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()
	defer PoisonReleasedBlocks(0xDB)()

	mac := packet.MAC{0x02, 0, 0, 0, 0, 7}
	pk := packet.NewUDP(mac, packet.MAC{2, 2, 2, 2, 2, 2},
		netip.MustParseAddr("10.0.0.7"), netip.MustParseAddr("10.0.0.1"), 40000, 9999, []byte("payload"))
	frame, err := pk.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f := NewFanout(1, RingConfig{Lossless: true})
	var kept []byte
	p := Attach(f, func(_ time.Time, pk *packet.Packet) {
		if string(pk.Payload) != "payload" {
			t.Errorf("payload %q inside the handler", pk.Payload)
		}
		kept = pk.Payload // what a handler must not do
	}, PumpConfig{})
	if err := f.Inject(time.Unix(1, 0), frame); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []byte("\xDB\xDB\xDB\xDB\xDB\xDB\xDB"); string(kept) != string(want) {
		t.Fatalf("kept payload reads %q after its block was released, want poison", kept)
	}
}

// TestPumpFlushesCountersBeforeParking pins the per-block counter
// flush: the reader adds a block's frames and bytes in one step once it
// has walked the block — also when the block ends in a frame the
// decoder rejects — so an idle (parked) reader never sits on a count.
func TestPumpFlushesCountersBeforeParking(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	f := NewFanout(1, RingConfig{Lossless: true})
	p := Attach(f, func(time.Time, *packet.Packet) {}, PumpConfig{Metrics: m})
	mac := packet.MAC{0x02, 0, 0, 0, 0, 8}
	var bytes uint64
	for i := 0; i < 3; i++ {
		frame := marshalARP(t, mac, i)
		bytes += uint64(len(frame))
		if err := f.Inject(time.Unix(0, int64(i)), frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Inject(time.Unix(0, 3), []byte{0xde, 0xad}); err != nil { // runt ends the block
		t.Fatal(err)
	}
	f.Flush()
	// The pump stays open: the counts must arrive while it idles.
	deadline := time.Now().Add(5 * time.Second)
	for m.decodeErrors.Value() != 1 || m.Frames() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("idle reader published %d frames, %d decode errors; want 3, 1", m.Frames(), m.decodeErrors.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.bytes.Value(); got != bytes {
		t.Fatalf("counted %d bytes, want %d", got, bytes)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
