package features

import (
	"fmt"

	"iotsentinel/internal/packet"
)

// Packed is one packet's 23 features in a single word — the canonical
// packet symbol from extraction to discrimination. Two packets agree on
// all 23 features iff their Packed values are equal, so the paper's
// "character equality" is a word compare. The float Vector is a view
// derived from it (Vector) and Pack is the only way back.
//
// Bit layout, least significant bit first (this is the one place it is
// stated; DESIGN.md §17 quotes it):
//
//	bits  0..17  the 18 binary features ARP..RouterAlert, bit i = feature i
//	bit   18     RawData (feature 19)
//	bits 19..20  SrcPortClass (0..3)
//	bits 21..22  DstPortClass (0..3)
//	bits 23..42  Size, 20 bits: every frame packet.Decode accepts
//	             (packet.MaxFrameLen = MaxSize) fits
//	bits 43..62  DstIPCounter, 20 bits: a setup capture holds at most
//	             MaxDstIPCounter packets (fingerprint.NewSetupCapture
//	             clamps to it), so its counter cannot outgrow the field
//	bit   63     reserved, always zero (Valid)
type Packed uint64

const (
	rawDataBit   = 18
	srcPortShift = 19
	dstPortShift = 21
	sizeShift    = 23
	sizeBits     = 20
	counterShift = sizeShift + sizeBits
	counterBits  = 20
	reservedMask = Packed(1) << (counterShift + counterBits)

	// MaxSize and MaxDstIPCounter are the largest frame size and
	// destination counter a Packed can hold.
	MaxSize         = 1<<sizeBits - 1
	MaxDstIPCounter = 1<<counterBits - 1
)

// The size field holds every frame packet.Decode accepts (the
// conversion fails to compile otherwise).
const _ = uint(MaxSize - packet.MaxFrameLen)

// Valid reports whether p is a word Pack could have produced: the
// reserved bit is clear. Boundaries that read raw words (the fleet
// wire) check it so two distinct words can never share a float view.
func (p Packed) Valid() bool { return p&reservedMask == 0 }

// Vector expands p to its float view, the representation the random
// forests consume.
func (p Packed) Vector() Vector {
	var v Vector
	p.PutVector(v[:])
	return v
}

// PutVector writes the float view of p into dst[:Count].
func (p Packed) PutVector(dst []float64) {
	dst = dst[:Count]
	for i := FeatARP; i <= FeatRouterAlert; i++ {
		dst[i] = float64(p >> i & 1)
	}
	dst[FeatSize] = float64(p >> sizeShift & MaxSize)
	dst[FeatRawData] = float64(p >> rawDataBit & 1)
	dst[FeatDstIPCounter] = float64(p >> counterShift & MaxDstIPCounter)
	dst[FeatSrcPortClass] = float64(p >> srcPortShift & 3)
	dst[FeatDstPortClass] = float64(p >> dstPortShift & 3)
}

// Pack is the inverse of Packed.Vector. It rejects every row the
// extractor cannot produce — a non-integral, negative, NaN or infinite
// value, a binary feature above 1, a port class above 3, a size or
// counter beyond its bit field — so no two distinct rows ever alias to
// one symbol.
func Pack(v Vector) (Packed, error) {
	var p Packed
	for i, f := range v {
		max, shift := uint64(1), i
		switch i {
		case FeatSize:
			max, shift = MaxSize, sizeShift
		case FeatRawData:
			shift = rawDataBit
		case FeatDstIPCounter:
			max, shift = MaxDstIPCounter, counterShift
		case FeatSrcPortClass:
			max, shift = 3, srcPortShift
		case FeatDstPortClass:
			max, shift = 3, dstPortShift
		}
		// The comparison is false for NaN and for anything negative or
		// beyond the field; the round trip is unequal for a fraction.
		if !(f >= 0 && f <= float64(max)) || float64(uint64(f)) != f {
			return 0, fmt.Errorf("features: %s = %v is not an integer in [0, %d]", Names[i], f, max)
		}
		p |= Packed(uint64(f)) << shift
	}
	return p, nil
}
