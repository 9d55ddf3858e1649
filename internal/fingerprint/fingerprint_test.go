package fingerprint

import (
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"iotsentinel/internal/features"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/testutil"
)

var (
	mac1 = packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	mac2 = packet.MAC{0x02, 0x66, 0x77, 0x88, 0x99, 0xaa}
	ip1  = netip.AddrFrom4([4]byte{192, 168, 1, 10})
	gw   = netip.AddrFrom4([4]byte{192, 168, 1, 1})
)

func vec(size float64) features.Vector {
	var v features.Vector
	v[features.FeatSize] = size
	return v
}

func TestDedupeConsecutive(t *testing.T) {
	tests := []struct {
		name string
		give []features.Vector
		want int
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []features.Vector{vec(1)}, want: 1},
		{name: "run-collapsed", give: []features.Vector{vec(1), vec(1), vec(1)}, want: 1},
		{name: "alternating-kept", give: []features.Vector{vec(1), vec(2), vec(1), vec(2)}, want: 4},
		{name: "mixed", give: []features.Vector{vec(1), vec(1), vec(2), vec(2), vec(1)}, want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := len(FromVectors(tt.give).F); got != tt.want {
				t.Errorf("len(F) = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestFPrimePadding(t *testing.T) {
	fp := FromVectors([]features.Vector{vec(10), vec(20)})
	if fp.UniqueCount != 2 {
		t.Fatalf("UniqueCount = %d, want 2", fp.UniqueCount)
	}
	if fp.FPrime[features.FeatSize] != 10 {
		t.Errorf("slot 0 size = %v, want 10", fp.FPrime[features.FeatSize])
	}
	if fp.FPrime[features.Count+features.FeatSize] != 20 {
		t.Errorf("slot 1 size = %v, want 20", fp.FPrime[features.Count+features.FeatSize])
	}
	// Slots 2..11 are zero padding.
	for i := 2 * features.Count; i < FPrimeLen; i++ {
		if fp.FPrime[i] != 0 {
			t.Fatalf("padding at %d = %v, want 0", i, fp.FPrime[i])
		}
	}
}

func TestFPrimeGlobalUniqueness(t *testing.T) {
	// vec(1) appears non-consecutively: F keeps both occurrences but F'
	// must only use the first.
	fp := FromVectors([]features.Vector{vec(1), vec(2), vec(1), vec(3)})
	if len(fp.F) != 4 {
		t.Errorf("len(F) = %d, want 4", len(fp.F))
	}
	if fp.UniqueCount != 3 {
		t.Errorf("UniqueCount = %d, want 3", fp.UniqueCount)
	}
	wantSizes := []float64{1, 2, 3}
	for i, w := range wantSizes {
		if got := fp.FPrime[i*features.Count+features.FeatSize]; got != w {
			t.Errorf("slot %d size = %v, want %v", i, got, w)
		}
	}
}

func TestFPrimeCapsAtTwelve(t *testing.T) {
	vs := make([]features.Vector, 0, 20)
	for i := 0; i < 20; i++ {
		vs = append(vs, vec(float64(i+1)))
	}
	fp := FromVectors(vs)
	if fp.UniqueCount != UniquePackets {
		t.Errorf("UniqueCount = %d, want %d", fp.UniqueCount, UniquePackets)
	}
	if got := fp.FPrime[(UniquePackets-1)*features.Count+features.FeatSize]; got != 12 {
		t.Errorf("last slot size = %v, want 12", got)
	}
}

func TestTruncatedFPrime(t *testing.T) {
	vs := make([]features.Vector, 0, 10)
	for i := 0; i < 10; i++ {
		vs = append(vs, vec(float64(i+1)))
	}
	f := FromVectors(vs).F
	for _, n := range []int{4, 8, 16} {
		fp := TruncatedFPrime(f, n)
		if len(fp) != n*features.Count {
			t.Errorf("TruncatedFPrime(%d) len = %d, want %d", n, len(fp), n*features.Count)
		}
	}
}

func TestFromPackets(t *testing.T) {
	pkts := []*packet.Packet{
		packet.NewDHCPDiscover(mac1, 1, "d"),
		packet.NewDHCPDiscover(mac1, 1, "d"), // consecutive duplicate
		packet.NewARP(mac1, ip1, gw),
	}
	fp := FromPackets(pkts)
	if len(fp.F) != 2 {
		t.Errorf("len(F) = %d, want 2 after dedupe", len(fp.F))
	}
}

func TestSetupCaptureIdleGap(t *testing.T) {
	c := NewSetupCapture(5*time.Second, 100)
	base := time.Unix(1000, 0)
	p := packet.NewARP(mac1, ip1, gw)
	for i := 0; i < 5; i++ {
		if done := c.Observe(base.Add(time.Duration(i)*time.Second), p); done {
			t.Fatalf("premature completion at packet %d", i)
		}
	}
	// A packet after a long gap ends the setup phase and is excluded.
	if done := c.Observe(base.Add(time.Hour), p); !done {
		t.Fatal("idle gap should complete the capture")
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d, want 5", c.Len())
	}
	if !c.Done() {
		t.Error("Done() = false")
	}
	// Further packets are ignored.
	c.Observe(base.Add(2*time.Hour), p)
	if c.Len() != 5 {
		t.Errorf("Len after done = %d, want 5", c.Len())
	}
}

func TestSetupCaptureMaxPackets(t *testing.T) {
	c := NewSetupCapture(time.Minute, 3)
	base := time.Unix(1000, 0)
	p := packet.NewARP(mac1, ip1, gw)
	for i := 0; i < 3; i++ {
		c.Observe(base.Add(time.Duration(i)*time.Millisecond), p)
	}
	if !c.Done() {
		t.Error("capture should complete at MaxPackets")
	}
	fp := c.Fingerprint()
	if len(fp.F) != 1 { // identical packets collapse
		t.Errorf("len(F) = %d, want 1", len(fp.F))
	}
}

func TestSetupCaptureDefaults(t *testing.T) {
	c := NewSetupCapture(0, 0)
	if c.IdleGap != 10*time.Second || c.MaxPackets != 300 {
		t.Errorf("defaults = %v/%d", c.IdleGap, c.MaxPackets)
	}
}

func TestQuickFPrimeInvariants(t *testing.T) {
	// Properties: UniqueCount <= 12; UniqueCount <= len(F);
	// F has no consecutive duplicates.
	f := func(sizes []uint16) bool {
		vs := make([]features.Vector, len(sizes))
		for i, s := range sizes {
			vs[i] = vec(float64(s%7) + 1) // few distinct values force dupes
		}
		fp := FromVectors(vs)
		if fp.UniqueCount > UniquePackets || fp.UniqueCount > len(fp.F) {
			return false
		}
		for i := 1; i < len(fp.F); i++ {
			if fp.F[i] == fp.F[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSetupCaptureObserveZeroAlloc pins Observe at zero allocations
// while a capture stays within its inline capacities: captureInline
// symbols and the extractor's destination table. A run is a whole
// 24-packet setup over 8 destinations (the table's size, and the
// substrate's most) into a capture of its own
// (AllocsPerRun rounds down, so one frame a run would hide growth
// that happens only every few frames).
func TestSetupCaptureObserveZeroAlloc(t *testing.T) {
	const setup = 24
	caps := make([]*SetupCapture, 128) // > the 101 runs AssertZeroAllocs makes
	for i := range caps {
		caps[i] = NewSetupCapture(time.Minute, 0)
	}
	pkts := make([]*packet.Packet, setup)
	for k := range pkts {
		dst := netip.AddrFrom4([4]byte{52, 0, 0, byte(k % 8)})
		pkts[k] = packet.NewUDP(mac1, mac2, ip1, dst, 40000, 443, make([]byte, k%3))
	}
	base := time.Unix(1000, 0)
	i := 0
	testutil.AssertZeroAllocs(t, "SetupCapture.Observe", func() {
		c := caps[i]
		i++
		for k, p := range pkts {
			c.Observe(base.Add(time.Duration(k)*time.Millisecond), p)
		}
	})
	if n := caps[0].Len(); n != setup {
		t.Fatalf("capture 0 holds %d packets, want %d", n, setup)
	}
}

// TestSetupCaptureMatchesFromPackets: a capture that outgrows its inline
// symbols and destination table still yields FromPackets' fingerprint.
func TestSetupCaptureMatchesFromPackets(t *testing.T) {
	var pkts []*packet.Packet
	for i := 0; i < 3*captureInline; i++ {
		dst := netip.AddrFrom4([4]byte{52, 0, byte(i % 20), 1})
		pkts = append(pkts, packet.NewUDP(mac1, mac2, ip1, dst, 40000, 443, make([]byte, i%5)))
	}
	c := NewSetupCapture(time.Minute, 0)
	base := time.Unix(1000, 0)
	for i, p := range pkts {
		c.Observe(base.Add(time.Duration(i)*time.Millisecond), p)
	}
	got, want := c.Fingerprint(), FromPackets(pkts)
	if !slices.Equal(got.F, want.F) || got.FPrime != want.FPrime || got.UniqueCount != want.UniqueCount {
		t.Errorf("capture fingerprint differs from FromPackets: %d vs %d rows", len(got.F), len(want.F))
	}
}

// TestSetupCaptureFingerprintAllocBound: finishing a capture allocates
// F — one object of 8 bytes per kept row (rounded up to an allocator
// size class) — and nothing else: no float rows, no uniqueness set.
func TestSetupCaptureFingerprintAllocBound(t *testing.T) {
	c := NewSetupCapture(time.Minute, 0)
	base := time.Unix(1000, 0)
	for i := 0; i < 40; i++ {
		p := packet.NewUDP(mac1, mac2, ip1, gw, 40000, 9999, make([]byte, i%25))
		c.Observe(base.Add(time.Duration(i)*time.Millisecond), p)
	}
	rows := len(c.Fingerprint().F)
	if rows < 25 {
		t.Fatalf("fixture kept %d rows, want a realistic F", rows)
	}
	testutil.AssertAllocs(t, "SetupCapture.Fingerprint", 1, func() { _ = c.Fingerprint() })

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = c.Fingerprint()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(8*rows + 8*rows/4 + 16); perRun > limit {
		t.Errorf("Fingerprint() allocates %d B for %d rows, want <= %d (8 B per row plus size-class slack)", perRun, rows, limit)
	}
}
