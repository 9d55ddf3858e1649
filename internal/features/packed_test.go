package features_test

import (
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/packet"
)

// TestPackRoundTripOverCatalog: for every symbol the extractor produces
// over every device profile, the float view packs back to the same word
// (Pack∘Vector = id) and the word's view is the row that was packed
// (Vector∘Pack = id) — the packed symbol loses nothing.
func TestPackRoundTripOverCatalog(t *testing.T) {
	symbols := 0
	for _, prof := range devices.Catalog() {
		for _, cap := range devices.GenerateCaptures(prof, 2, 31) {
			ex := features.NewExtractor()
			for i, pk := range cap.Packets {
				p := ex.Extract(pk)
				if !p.Valid() {
					t.Fatalf("%s packet %d: extractor produced invalid symbol %#x", prof.ID, i, uint64(p))
				}
				v := p.Vector()
				back, err := features.Pack(v)
				if err != nil {
					t.Fatalf("%s packet %d: Pack(Vector(%#x)): %v", prof.ID, i, uint64(p), err)
				}
				if back != p {
					t.Fatalf("%s packet %d: Pack(Vector(%#x)) = %#x", prof.ID, i, uint64(p), uint64(back))
				}
				if back.Vector() != v {
					t.Fatalf("%s packet %d: Vector(Pack(v)) = %v, want %v", prof.ID, i, back.Vector(), v)
				}
				symbols++
			}
		}
	}
	if symbols == 0 {
		t.Fatal("catalog produced no packets")
	}
}

func TestPackRejectsWhatExtractionCannotProduce(t *testing.T) {
	at := func(idx int, x float64) features.Vector {
		var v features.Vector
		v[idx] = x
		return v
	}
	for name, v := range map[string]features.Vector{
		"non-integral size":  at(features.FeatSize, 60.5),
		"negative size":      at(features.FeatSize, -1),
		"NaN":                at(features.FeatTCP, math.NaN()),
		"+Inf":               at(features.FeatDstIPCounter, math.Inf(1)),
		"-Inf":               at(features.FeatSize, math.Inf(-1)),
		"flag above 1":       at(features.FeatARP, 2),
		"raw-data above 1":   at(features.FeatRawData, 2),
		"src port class 4":   at(features.FeatSrcPortClass, 4),
		"dst port class 4":   at(features.FeatDstPortClass, 4),
		"size past field":    at(features.FeatSize, features.MaxSize+1),
		"counter past field": at(features.FeatDstIPCounter, features.MaxDstIPCounter+1),
		"huge":               at(features.FeatSize, 1e300),
	} {
		if p, err := features.Pack(v); err == nil {
			t.Errorf("%s: packed as %#x, want an error", name, uint64(p))
		} else if !strings.HasPrefix(err.Error(), "features: ") {
			t.Errorf("%s: error %q does not name its package", name, err)
		}
	}
	// The largest value of every field is representable.
	var top features.Vector
	for i := range top {
		top[i] = 1
	}
	top[features.FeatSize] = features.MaxSize
	top[features.FeatDstIPCounter] = features.MaxDstIPCounter
	top[features.FeatSrcPortClass], top[features.FeatDstPortClass] = 3, 3
	p, err := features.Pack(top)
	if err != nil {
		t.Fatalf("all-maximal row rejected: %v", err)
	}
	if !p.Valid() || p.Vector() != top {
		t.Fatalf("all-maximal row does not round-trip: %#x → %v", uint64(p), p.Vector())
	}
}

// TestFieldWidthsHoldTheirSources pins the two bounds the layout relies
// on: packet.Decode refuses a frame the size field could not hold, and
// a destination counter past its field saturates instead of wrapping
// into a neighbouring feature.
func TestFieldWidthsHoldTheirSources(t *testing.T) {
	if _, err := packet.Decode(make([]byte, packet.MaxFrameLen+1)); err == nil {
		t.Error("Decode accepted a frame longer than MaxFrameLen")
	}
	ex := features.NewExtractor()
	pk := packet.NewUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.Addr{}, 40000, 53, nil)
	var last features.Packed
	for i := 0; i < features.MaxDstIPCounter+2; i++ {
		pk.DstIP = netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)})
		last = ex.Extract(pk)
	}
	v := last.Vector()
	if !last.Valid() || v[features.FeatDstIPCounter] != features.MaxDstIPCounter {
		t.Errorf("counter past its field = %v (valid %v), want saturation at %d",
			v[features.FeatDstIPCounter], last.Valid(), features.MaxDstIPCounter)
	}
	if v[features.FeatUDP] != 1 || v[features.FeatSize] != float64(pk.Size) {
		t.Errorf("saturated counter disturbed other features: %v", v)
	}
}

// FuzzPackRoundTrip: any valid word survives Vector→Pack, and a view
// with one arbitrary float spliced in either is rejected or packs to a
// word whose view is exactly that row — never a different row.
func FuzzPackRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(rng.Uint64(), uint8(rng.Intn(features.Count)), float64(rng.Intn(4)))
	}
	f.Add(uint64(0), uint8(features.FeatSize), 60.5)
	f.Add(^uint64(0), uint8(features.FeatARP), math.NaN())
	f.Add(uint64(1)<<62, uint8(features.FeatDstIPCounter), float64(features.MaxDstIPCounter+1))
	f.Fuzz(func(t *testing.T, word uint64, idx uint8, x float64) {
		p := features.Packed(word)
		if !p.Valid() {
			p &^= 1 << 63
		}
		v := p.Vector()
		back, err := features.Pack(v)
		if err != nil || back != p {
			t.Fatalf("Pack(Vector(%#x)) = %#x, %v", uint64(p), uint64(back), err)
		}
		v[int(idx)%features.Count] = x
		q, err := features.Pack(v)
		if err != nil {
			return
		}
		if !q.Valid() || q.Vector() != v {
			t.Fatalf("Pack(%v) = %#x whose view is %v: two rows share a symbol", v, uint64(q), q.Vector())
		}
	})
}
