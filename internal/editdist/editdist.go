// Package editdist implements the Damerau-Levenshtein edit distance used
// by the discrimination step of Sect. IV-B2: insertion, deletion,
// substitution and immediate (adjacent) transposition of characters,
// i.e. the optimal-string-alignment (OSA) variant. A "character" is one
// packed packet symbol of the fingerprint F; two characters are equal
// iff all 23 features agree, which for features.Packed is a word
// compare.
//
// The distance is Hyyrö's bit-vector algorithm ("A bit-vector algorithm
// for computing Levenshtein and Damerau edit distances", 2003): one
// word, the pattern, is held as match masks — per symbol, a bit per
// position where it occurs — and the other, the text, is read a symbol
// at a time, each step updating one column of the DP matrix as bit
// vectors in about 15 word operations. A pattern of up to 64 symbols
// (every catalog fingerprint) is one word per mask; a longer one is
// split into 64-bit blocks with carries between them. The kernel always
// computes the exact distance; bounded calls first try two exact
// cut-offs, each a lower bound on the distance: the length difference,
// and the bag distance max(|a|,|b|) − |a ∩ b| over multisets (an edit
// changes it by at most one, a transposition not at all). oracle_test.go
// and the fuzz targets hold every entry point to the full-matrix DP.
//
// A RefSet precomputes its references' masks once, over a small
// open-addressed table of the set's symbols; the pairwise functions
// build the same table for their pattern in pooled scratch, so the
// steady-state paths allocate nothing.
package editdist

import (
	"math"
	"math/bits"
	"sync"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// symtab maps symbols to dense indices 0..n-1: open addressing with
// linear probing in a power-of-two table at least twice the symbols it
// may take. Index n stands for every symbol the table does not hold.
type symtab struct {
	keys  []features.Packed
	slots []int32 // 1 + the index of keys[i]; 0 marks an empty slot
	shift uint
	n     int32
}

// reset makes t the table of words' symbols, indexed in order of first
// appearance.
func (t *symtab) reset(words ...fingerprint.F) {
	total, size := 0, 4
	for _, w := range words {
		total += len(w)
	}
	for size < 2*total {
		size *= 2
	}
	if cap(t.slots) < size {
		t.keys, t.slots = make([]features.Packed, size), make([]int32, size)
	} else {
		t.keys, t.slots = t.keys[:size], t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, w := range words {
		for _, p := range w {
			if i := t.slot(p); t.slots[i] == 0 {
				t.n++
				t.keys[i], t.slots[i] = p, t.n
			}
		}
	}
}

func (t *symtab) slot(p features.Packed) int {
	mask := len(t.slots) - 1
	i := int(uint64(p) * 0x9e3779b97f4a7c15 >> t.shift)
	for t.slots[i] != 0 && t.keys[i] != p {
		i = (i + 1) & mask
	}
	return i
}

func (t *symtab) lookup(p features.Packed) int32 {
	if s := t.slots[t.slot(p)]; s != 0 {
		return s - 1
	}
	return t.n
}

func blocks(m int) int { return (m + 63) >> 6 }

// masks sets dst to w's match masks over t, reusing its array: row s,
// the blocks(len(w)) words from s·blocks, has bit i set where w[i] has
// index s. Row t.n, the symbols t lacks, is all zero.
func masks(t *symtab, w fingerprint.F, dst []uint64) []uint64 {
	nb := blocks(len(w))
	if need := int(t.n+1) * nb; cap(dst) < need {
		dst = make([]uint64, need)
	} else {
		dst = dst[:need]
		clear(dst)
	}
	for i, p := range w {
		dst[int(t.lookup(p))*nb+i>>6] |= 1 << (i & 63)
	}
	return dst
}

// scratch is the reusable working memory for one distance or
// discrimination call.
type scratch struct {
	tab   symtab   // the pattern's symbols (pairwise calls)
	pm    []uint64 // the pattern's match masks (pairwise calls)
	text  []int32  // the text as symbol indices
	occ   []int32  // occ[j]: how many of text[:j+1] equal text[j]
	count []int32  // per-symbol tallies behind occ
	state []uint64 // the blocked kernel's per-block vectors
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// setText translates f into s.text through t, and ranks each symbol's
// occurrences into s.occ for the bag bound.
func (s *scratch) setText(t *symtab, f fingerprint.F) {
	if cap(s.text) < len(f) {
		s.text, s.occ = make([]int32, len(f)), make([]int32, len(f))
	}
	if cap(s.count) <= int(t.n) {
		s.count = make([]int32, t.n+1)
	}
	text, occ, count := s.text[:len(f)], s.occ[:len(f)], s.count[:t.n+1]
	clear(count)
	for j, p := range f {
		c := t.lookup(p)
		count[c]++
		text[j], occ[j] = c, count[c]
	}
	s.text, s.occ = text, occ
}

// bounded returns the OSA distance between the m-symbol pattern with
// masks pm and s.text if it is at most limit, and otherwise some value
// above limit.
func (s *scratch) bounded(pm []uint64, m, limit int) int {
	n := len(s.text)
	if m == 0 || n == 0 {
		return max(m, n)
	}
	if m-n > limit || n-m > limit {
		return limit + 1
	}
	if limit < max(m, n) {
		// The bag distance is max(m, n) minus the text symbols within
		// the pattern's own count of them (the popcount of their masks),
		// so the text may leave at most this many unmatched.
		nb, spare := blocks(m), limit-max(m, n)+n
		for j, c := range s.text {
			k := 0
			for _, w := range pm[int(c)*nb : int(c+1)*nb] {
				k += bits.OnesCount64(w)
			}
			if int(s.occ[j]) > k {
				if spare--; spare < 0 {
					return limit + 1
				}
			}
		}
	}
	if m <= 64 {
		return osaWord(pm, m, s.text)
	}
	return s.osaBlocks(pm, m)
}

// osaWord is the kernel for a pattern of at most 64 symbols. Column j
// of the DP matrix D (D[i][j]: pattern[:i] against text[:j]) is kept as
// the vertical deltas D[i][j]−D[i−1][j] in vp (+1) and vn (−1); d0 has
// bit i set where D[i][j] = D[i−1][j−1], and hp/hn are the horizontal
// deltas. Bit i of x seeds d0: a match, a fall of D down the previous
// column, or a transposition — pattern[i] = text[j−1], pattern[i−1] =
// text[j] and D[i−1][j−1] = D[i−2][j−2], so D[i][j] = D[i−2][j−2]+1 =
// D[i−1][j−1]; the add carries d0 down runs of vp. d tracks D[m][j].
func osaWord(pm []uint64, m int, text []int32) int {
	vp, vn := ^uint64(0), uint64(0)
	d0, prev := ^uint64(0), uint64(0) // no transposition into column 1
	top := uint64(1) << (m - 1)
	d := m
	for _, c := range text {
		eq := pm[c]
		x := eq | vn | ((^d0&eq)<<1)&prev
		d0 = ((x & vp) + vp) ^ vp | x
		hp := vn | ^(d0 | vp)
		hn := vp & d0
		if hp&top != 0 {
			d++
		} else if hn&top != 0 {
			d--
		}
		hp = hp<<1 | 1 // D[0][j] − D[0][j−1] = +1
		vp = hn<<1 | ^(d0 | hp)
		vn = d0 & hp
		prev = eq
	}
	return d
}

// osaBlocks is osaWord over a pattern of more than 64 symbols, in
// 64-row blocks from the top of the matrix. What crosses a block
// boundary is the bottom row of the block above: its horizontal deltas
// (shifted in as hp/hn carry, and hn also into d0's add chain, as
// D[i][j] = D[i−1][j−1] wherever D[i−1][j] fell) and its half of the
// transposition test.
func (s *scratch) osaBlocks(pm []uint64, m int) int {
	nb := blocks(m)
	if cap(s.state) < 3*nb {
		s.state = make([]uint64, 3*nb)
	}
	vps, vns, d0s := s.state[:nb], s.state[nb:2*nb], s.state[2*nb:3*nb]
	for b := range vps {
		vps[b], vns[b], d0s[b] = ^uint64(0), 0, ^uint64(0)
	}
	top := uint64(1) << ((m - 1) & 63)
	d := m
	prevC := s.text[0] // masked out by d0 = all ones in the first column
	for _, c := range s.text {
		eqs, prevs := pm[int(c)*nb:int(c+1)*nb], pm[int(prevC)*nb:int(prevC+1)*nb]
		hpIn, hnIn, tcIn := uint64(1), uint64(0), uint64(0)
		var hp, hn uint64
		for b, eq := range eqs {
			vp, vn := vps[b], vns[b]
			t := ^d0s[b] & eq
			x := eq | vn | (t<<1|tcIn)&prevs[b] | hnIn
			d0 := ((x & vp) + vp) ^ vp | x
			hp, hn = vn|^(d0|vp), vp&d0
			hps, hns := hp<<1|hpIn, hn<<1|hnIn
			vps[b], vns[b], d0s[b] = hns|^(d0|hps), d0&hps, d0
			hpIn, hnIn, tcIn = hp>>63, hn>>63, t>>63
		}
		if hp&top != 0 {
			d++
		} else if hn&top != 0 {
			d--
		}
		prevC = c
	}
	return d
}

// Distance computes the restricted Damerau-Levenshtein distance between
// two fingerprints.
func Distance(a, b fingerprint.F) int {
	return DistanceBounded(a, b, max(len(a), len(b)))
}

// DistanceBounded computes the restricted Damerau-Levenshtein distance
// if it is at most limit, and otherwise returns some value greater
// than limit (callers must test d > limit, not a specific sentinel).
// A negative limit always reports exceeded.
func DistanceBounded(a, b fingerprint.F, limit int) int {
	if limit < 0 {
		return limit + 1
	}
	if len(a) > len(b) {
		a, b = b, a // the shorter word is the pattern: fewer blocks
	}
	s := scratchPool.Get().(*scratch)
	s.tab.reset(a)
	s.pm = masks(&s.tab, a, s.pm)
	s.setText(&s.tab, b)
	d := s.bounded(s.pm, len(a), limit)
	scratchPool.Put(s)
	return d
}

// Normalized divides the edit distance by the length of the longer
// fingerprint, yielding a value in [0, 1]. Two empty fingerprints have
// distance 0.
func Normalized(a, b fingerprint.F) float64 {
	n := max(len(a), len(b))
	if n == 0 {
		return 0
	}
	return float64(Distance(a, b)) / float64(n)
}

// NormalizedBounded computes the normalized distance if it is at most
// limit, returning (d, true) with d exact; otherwise it returns
// (_, false), often from a cut-off without running the kernel.
// This is the linkage predicate for clustering ("are these two words
// within limit of each other?"): the integer budget handed to
// DistanceBounded is the largest maxD with maxD/maxlen <= limit, derived with
// the same guess-and-nudge float discipline as DistanceSumBounded, so
// the accept/reject decision is bit-identical to computing Normalized
// exactly and comparing. A negative limit always reports exceeded; two
// empty words are within any limit >= 0.
func NormalizedBounded(a, b fingerprint.F, limit float64) (float64, bool) {
	if limit < 0 {
		return 0, false
	}
	ml := max(len(a), len(b))
	if ml == 0 {
		return 0, true
	}
	mlf := float64(ml)
	// Largest integer budget whose normalized value stays within limit.
	maxD := ml
	if guess := limit * mlf; guess < float64(ml) {
		maxD = int(guess)
		for maxD < ml && float64(maxD+1)/mlf <= limit {
			maxD++
		}
	}
	for maxD >= 0 && float64(maxD)/mlf > limit {
		maxD--
	}
	if maxD < 0 {
		return 0, false
	}
	d := DistanceBounded(a, b, maxD)
	if d > maxD {
		return 0, false
	}
	return float64(d) / mlf, true
}

// RefSet is one device type's reference fingerprints, scored as a set
// by discrimination. It is immutable after construction and safe for
// concurrent use.
type RefSet struct {
	refs []fingerprint.F
	tab  symtab     // every reference's symbols
	pms  [][]uint64 // pms[i]: refs[i]'s match masks over tab
}

// NewRefSet wraps the reference fingerprints (not copied; the caller
// must not modify them afterwards) and precomputes their match masks.
func NewRefSet(refs []fingerprint.F) *RefSet {
	rs := &RefSet{refs: refs, pms: make([][]uint64, len(refs))}
	rs.tab.reset(refs...)
	for i, r := range refs {
		rs.pms[i] = masks(&rs.tab, r, nil)
	}
	return rs
}

// Refs returns the reference fingerprints; read-only.
func (rs *RefSet) Refs() []fingerprint.F { return rs.refs }

// Len returns the number of reference fingerprints.
func (rs *RefSet) Len() int { return len(rs.refs) }

// DistanceSum returns the sum of the normalized Damerau-Levenshtein
// distances from f to every reference, and the number of distance
// computations performed — Normalized(f, ref) summed in reference order.
func (rs *RefSet) DistanceSum(f fingerprint.F) (sum float64, n int) {
	sum, n, _ = rs.DistanceSumBounded(f, math.Inf(1))
	return sum, n
}

// DistanceSumBounded is DistanceSum with early abandonment: as soon as
// the partial sum provably cannot stay below limit, it stops and
// reports pruned = true (sum then holds the partial accumulation, not
// the full total). While the sum stays below limit every distance is
// computed exactly and accumulated in reference order, so an
// un-pruned result is bit-identical to DistanceSum's — discrimination
// uses the current best candidate's sum as the limit and keeps exact
// scores for every candidate that completes. n counts the distance
// computations started, including one cut short by the bound.
//
// Pruning is conservative across the int/float boundary: a reference
// is abandoned at distance budget maxD only when
// sum + (maxD+1)/maxlen >= limit under the exact float operations the
// full accumulation would perform; integer distances and monotonicity
// of IEEE-754 addition and division in their operands make exceeding
// maxD a proof that the completed sum would have reached limit.
func (rs *RefSet) DistanceSumBounded(f fingerprint.F, limit float64) (sum float64, n int, pruned bool) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.setText(&rs.tab, f)
	for i, rw := range rs.refs {
		if sum >= limit {
			// Distances are non-negative, so the full sum can only be
			// >= limit as well: no later candidate information is lost
			// by stopping here.
			return sum, n, true
		}
		ml := max(len(f), len(rw))
		if ml == 0 {
			n++
			continue // both empty: normalized distance 0
		}
		mlf := float64(ml)
		// Largest budget maxD whose overrun proves sum >= limit. The
		// float guess is then nudged: up until overrunning it is a
		// proof, down while a smaller budget still is (both loops
		// settle within a step or two of the guess).
		maxD := ml
		if bound := (limit - sum) * mlf; bound < float64(ml+1) {
			maxD = int(bound)
			if maxD > ml {
				maxD = ml
			}
			for maxD < ml && sum+float64(maxD+1)/mlf < limit {
				maxD++
			}
			for maxD >= 0 && sum+float64(maxD)/mlf >= limit {
				maxD--
			}
		}
		n++
		d := s.bounded(rs.pms[i], len(rw), maxD)
		if d > maxD {
			return sum, n, true
		}
		sum += float64(d) / mlf
	}
	return sum, n, false
}
