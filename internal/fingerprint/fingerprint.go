// Package fingerprint builds the two device fingerprints of Sect. IV-A:
//
//   - F: the variable-length sequence of packed 23-feature packet
//     symbols for the setup-phase packets of one device, with
//     consecutive identical symbols discarded.
//   - F′ ("FPrime"): a fixed 276-dimensional vector formed by
//     concatenating the float views of the first 12 *unique* symbols of
//     F, zero-padded when fewer than 12 unique symbols exist.
//
// It also detects the end of a device's setup phase (SetupCapture): the
// phase ends on the first silence of at least IdleGap between two of the
// device's packets, or once MaxPackets packets have been captured.
package fingerprint

import (
	"fmt"
	"time"

	"iotsentinel/internal/features"
	"iotsentinel/internal/packet"
)

// UniquePackets is the number of unique packet vectors concatenated into
// the fixed-size fingerprint F′ (Sect. IV-A: "12 packets was a good
// trade-off").
const UniquePackets = 12

// FPrimeLen is the dimensionality of F′: 12 packets × 23 features.
const FPrimeLen = UniquePackets * features.Count

// F is the variable-length fingerprint: an ordered sequence of packed
// packet symbols with consecutive duplicates removed. Each element is
// one "character" for the edit-distance discrimination step.
type F []features.Packed

// FPrime is the fixed-size fingerprint used for classification.
type FPrime [FPrimeLen]float64

// Fingerprint bundles both representations for one device observation.
// FPrime and UniqueCount are functions of F (see F.Head); the package's
// constructors keep them so, and consumers that must not trust a
// hand-built value — the classifier bank behind its cache — read F
// alone and derive the rest.
//
// A Fingerprint is a value in flight, 2 240 B of which 2 208 are F′.
// State that outlives a call keeps F alone (8 B a row) — the bank's
// training pool, the gateway's parked entries, the learner's clusters,
// the fleet spool, the model file and the journal — and F′ is derived
// only where a forest reads it: by the trainer, from a pooled F, and by
// the bank's pooled scratch at identification.
type Fingerprint struct {
	F      F
	FPrime FPrime
	// UniqueCount is the number of unique packet vectors that filled
	// F′ before padding (min(unique(F), 12)).
	UniqueCount int
}

// FromPacked builds a Fingerprint from an ordered packet-symbol
// sequence (one device's setup traffic). The result does not alias ps.
func FromPacked(ps []features.Packed) Fingerprint {
	// Consecutive duplicates are dropped, per Eq. (1)'s side condition.
	// Counting first sizes F exactly: one allocation of 8 B per row.
	keep := func(i int) bool { return i == 0 || ps[i] != ps[i-1] }
	n := 0
	for i := range ps {
		if keep(i) {
			n++
		}
	}
	var f F
	if n > 0 {
		f = make(F, 0, n)
	}
	for i, p := range ps {
		if keep(i) {
			f = append(f, p)
		}
	}
	fp := Fingerprint{F: f}
	h := f.Head()
	h.Prime(&fp.FPrime)
	fp.UniqueCount = h.N
	return fp
}

// FromVectors is FromPacked over the float view, for rows that came
// from the extractor (features.ExtractAll). It panics on a row
// features.Pack rejects; fingerprints from outside the program arrive
// packed (DecodeF, FromF).
func FromVectors(vs []features.Vector) Fingerprint {
	ps := make([]features.Packed, len(vs))
	for i, v := range vs {
		p, err := features.Pack(v)
		if err != nil {
			panic(fmt.Sprintf("fingerprint: FromVectors row %d: %v", i, err))
		}
		ps[i] = p
	}
	return FromPacked(ps)
}

// FromPackets extracts features (with fresh destination-IP counter
// state) and builds the Fingerprint.
func FromPackets(pkts []*packet.Packet) Fingerprint {
	var e features.Extractor
	ps := make([]features.Packed, len(pkts))
	for i, p := range pkts {
		ps[i] = e.Extract(p)
	}
	return FromPacked(ps)
}

// Head is what the classifier bank reads of a fingerprint: the first
// UniquePackets globally unique symbols of an F, in order of first
// appearance, and how many there are. Slots past N are zero, so Head is
// a comparable value — two F with equal heads have the same F′ — and
// the identification cache keys its accept-set memo by it.
type Head struct {
	Syms [UniquePackets]features.Packed
	N    int
}

// uniquePrefix appends to seen[:0] the first cap(seen) globally unique
// symbols of f — the one definition of F′'s "first unique packets".
// Uniqueness is a linear scan over the symbols already taken: at most
// cap(seen) word compares per row.
func (f F) uniquePrefix(seen []features.Packed) []features.Packed {
	seen = seen[:0]
rows:
	for _, p := range f {
		if len(seen) == cap(seen) {
			break
		}
		for _, q := range seen {
			if p == q {
				continue rows
			}
		}
		seen = append(seen, p)
	}
	return seen
}

// Head returns the head of f.
func (f F) Head() Head {
	var h Head
	h.N = len(f.uniquePrefix(h.Syms[:0]))
	return h
}

// Prime writes F′ — the float views of the head's symbols, zero padded
// to FPrimeLen — into dst: the one place the pipeline leaves the packed
// representation.
func (h *Head) Prime(dst *FPrime) {
	putVectors(dst[:], h.Syms[:h.N])
}

// putVectors writes the float views of syms into dst and zeroes the
// rest of it.
func putVectors(dst []float64, syms []features.Packed) {
	for i, p := range syms {
		p.PutVector(dst[i*features.Count:])
	}
	clear(dst[len(syms)*features.Count:])
}

// TruncatedFPrime builds a variable-length analogue of F′ using the
// first n unique vectors instead of 12. It exists for the fingerprint-
// length ablation study; n must be positive.
func TruncatedFPrime(f F, n int) []float64 {
	out := make([]float64, n*features.Count)
	putVectors(out, f.uniquePrefix(make([]features.Packed, 0, n)))
	return out
}

// captureInline is how many symbols a SetupCapture holds in its own
// buffer before its symbol slice grows onto the heap. The setup
// captures of the 27-type substrate are at most 26 packets long (p99
// 23-24; 1 080 captures at each of seeds 1-5).
const captureInline = 32

// SetupCapture accumulates timestamped packets for one device and
// detects the end of its setup phase: the capture is complete once a
// packet arrives IdleGap or more after the previous one (that packet is
// not captured), or once MaxPackets packets have been collected. A
// capture is one allocation: the extractor and the first captureInline
// symbols live inside it.
type SetupCapture struct {
	// IdleGap is the silence duration that ends the setup phase.
	IdleGap time.Duration
	// MaxPackets caps the capture length.
	MaxPackets int

	syms     []features.Packed // starts on buf
	ext      features.Extractor
	lastSeen time.Time
	done     bool
	buf      [captureInline]features.Packed
}

// NewSetupCapture returns a capture with the given idle gap and packet
// cap; non-positive arguments select the defaults (10 s, 300 packets).
func NewSetupCapture(idleGap time.Duration, maxPackets int) *SetupCapture {
	if idleGap <= 0 {
		idleGap = 10 * time.Second
	}
	if maxPackets <= 0 {
		maxPackets = 300
	}
	// One capture then sees at most MaxDstIPCounter destinations, so
	// its destination counter always fits its field.
	maxPackets = min(maxPackets, features.MaxDstIPCounter)
	c := &SetupCapture{IdleGap: idleGap, MaxPackets: maxPackets}
	c.syms = c.buf[:0]
	return c
}

// Observe records one packet at time ts. It returns true once the setup
// phase is complete (idle gap seen or cap reached); packets observed
// after completion are ignored. Within the inline capacities it
// allocates nothing.
func (c *SetupCapture) Observe(ts time.Time, p *packet.Packet) bool {
	if c.done {
		return true
	}
	if len(c.syms) > 0 && ts.Sub(c.lastSeen) >= c.IdleGap {
		// The device went quiet: the setup phase ended at the previous
		// packet; this one belongs to steady-state operation.
		c.done = true
		return true
	}
	c.syms = append(c.syms, c.ext.Extract(p))
	c.lastSeen = ts
	if len(c.syms) >= c.MaxPackets {
		c.done = true
	}
	return c.done
}

// Done reports whether the setup phase has been detected as complete.
func (c *SetupCapture) Done() bool { return c.done }

// Len returns the number of packets captured so far.
func (c *SetupCapture) Len() int { return len(c.syms) }

// LastSeen returns the timestamp of the most recently observed packet
// (zero before the first packet). Sweepers use it to finalize captures
// of devices that went silent without a completion-triggering packet.
func (c *SetupCapture) LastSeen() time.Time { return c.lastSeen }

// Fingerprint finalizes the capture and returns the fingerprint built
// from the packets observed so far.
func (c *SetupCapture) Fingerprint() Fingerprint {
	return FromPacked(c.syms)
}
