// Package fingerprint builds the two device fingerprints of Sect. IV-A:
//
//   - F: the variable-length sequence of packed 23-feature packet
//     symbols for the setup-phase packets of one device, with
//     consecutive identical symbols discarded.
//   - F′ ("FPrime"): a fixed 276-dimensional vector formed by
//     concatenating the float views of the first 12 *unique* symbols of
//     F, zero-padded when fewer than 12 unique symbols exist.
//
// It also implements the setup-phase end detection the paper describes:
// the setup phase ends when the packet rate drops below a fraction of
// its peak.
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
// FPrime and UniqueCount are functions of F (see Prime); the package's
// constructors keep them so, and consumers that must not trust a
// hand-built value — the classifier bank behind its cache — read F
// alone and derive the rest.
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
	fp.UniqueCount = f.Prime(fp.FPrime[:])
	return fp
}

// FromVectors is FromPacked over the float view, for rows that came
// from the extractor (features.ExtractAll). It panics on a row
// features.Pack rejects; rows from outside the program go through
// FromRows instead.
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

// FromRows builds a Fingerprint from float feature rows read from
// outside the program — the row format of the HTTP API, the journal and
// the model file. A row of the wrong width, or one the extractor cannot
// produce (features.Pack), is an error.
func FromRows(rows [][]float64) (Fingerprint, error) {
	ps := make([]features.Packed, len(rows))
	for i, row := range rows {
		if len(row) != features.Count {
			return Fingerprint{}, fmt.Errorf("row %d has %d features, want %d", i, len(row), features.Count)
		}
		p, err := features.Pack(features.Vector(row))
		if err != nil {
			return Fingerprint{}, fmt.Errorf("row %d: %w", i, err)
		}
		ps[i] = p
	}
	return FromPacked(ps), nil
}

// Rows is the inverse of FromRows: the float rows of f.
func (f F) Rows() [][]float64 {
	flat := make([]float64, len(f)*features.Count)
	rows := make([][]float64, len(f))
	for i, p := range f {
		rows[i] = flat[i*features.Count : (i+1)*features.Count : (i+1)*features.Count]
		p.PutVector(rows[i])
	}
	return rows
}

// FromPackets extracts features (with fresh destination-IP counter
// state) and builds the Fingerprint.
func FromPackets(pkts []*packet.Packet) Fingerprint {
	e := features.NewExtractor()
	ps := make([]features.Packed, len(pkts))
	for i, p := range pkts {
		ps[i] = e.Extract(p)
	}
	return FromPacked(ps)
}

// Prime writes the float views of the first len(dst)/features.Count
// globally unique symbols of f into dst, zero padding the tail, and
// returns the number of unique symbols used. With a dst of FPrimeLen
// it derives F′ — the one place the pipeline leaves the packed
// representation. Uniqueness is a linear scan over the symbols already
// taken: at most 12 word compares per row.
func (f F) Prime(dst []float64) int {
	n := len(dst) / features.Count
	var taken [UniquePackets]features.Packed
	seen := taken[:0]
	if n > UniquePackets {
		seen = make([]features.Packed, 0, n)
	}
rows:
	for _, p := range f {
		if len(seen) == n {
			break
		}
		for _, q := range seen {
			if p == q {
				continue rows
			}
		}
		p.PutVector(dst[len(seen)*features.Count:])
		seen = append(seen, p)
	}
	clear(dst[len(seen)*features.Count:])
	return len(seen)
}

// TruncatedFPrime builds a variable-length analogue of F′ using the
// first n unique vectors instead of 12. It exists for the fingerprint-
// length ablation study; n must be positive.
func TruncatedFPrime(f F, n int) []float64 {
	out := make([]float64, n*features.Count)
	f.Prime(out)
	return out
}

// SetupCapture accumulates timestamped packets for one device and
// detects the end of its setup phase by a decrease in packet rate: once
// the device has been quiet for IdleGap (no packet), or MaxPackets have
// been collected, the capture is complete.
type SetupCapture struct {
	// IdleGap is the silence duration that ends the setup phase.
	IdleGap time.Duration
	// MaxPackets caps the capture length.
	MaxPackets int

	syms     []features.Packed
	ext      *features.Extractor
	lastSeen time.Time
	done     bool
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
	return &SetupCapture{
		IdleGap:    idleGap,
		MaxPackets: maxPackets,
		ext:        features.NewExtractor(),
	}
}

// Observe records one packet at time ts. It returns true once the setup
// phase is considered complete (rate decrease detected or cap reached);
// packets observed after completion are ignored.
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
