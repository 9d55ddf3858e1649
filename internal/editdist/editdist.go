// Package editdist implements the Damerau-Levenshtein edit distance used
// by the discrimination step of Sect. IV-B2: insertion, deletion,
// substitution and immediate (adjacent) transposition of characters,
// i.e. the optimal-string-alignment variant. A "character" is one packed
// packet symbol of the fingerprint F; two characters are equal iff all
// 23 features agree, which for features.Packed is a word compare — so
// the DP runs directly over fingerprint.F with no symbol table.
//
// The DP is banded: a computation bounded by limit only fills the
// diagonal band |i-j| <= limit and abandons as soon as the distance
// provably exceeds the bound, turning the O(n·m) matrix into
// O(min(n,m)·limit) work. Where the band is cut off the true value is
// at least |i-j| > limit (every length-changing edit costs one, and
// transpositions preserve length), so clamping out-of-band cells to a
// large sentinel never underestimates — the result is exact whenever it
// is <= limit, which is what lets discrimination abandon candidates
// that cannot beat the current best sum (oracle_test.go and
// FuzzBandedDistance hold the banded walk to the naive full matrix).
// All scratch comes from a sync.Pool, so the steady-state paths
// allocate nothing.
package editdist

import (
	"math"
	"sync"

	"iotsentinel/internal/fingerprint"
)

// sentinel is an effectively-infinite cell value: larger than any real
// distance or limit, small enough that +1 cannot overflow.
const sentinel = 1 << 30

// scratch is the reusable working memory for one distance or
// discrimination call: three DP rows.
type scratch struct {
	prev2, prev, cur []int
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func (s *scratch) rows(n int) (prev2, prev, cur []int) {
	if cap(s.prev2) < n {
		s.prev2 = make([]int, n)
		s.prev = make([]int, n)
		s.cur = make([]int, n)
	}
	return s.prev2[:n], s.prev[:n], s.cur[:n]
}

// Distance computes the restricted Damerau-Levenshtein distance between
// two fingerprints.
func Distance(a, b fingerprint.F) int {
	la, lb := len(a), len(b)
	limit := la
	if lb > limit {
		limit = lb
	}
	// A full-width band: every cell is computed, so the result is the
	// exact distance.
	return DistanceBounded(a, b, limit)
}

// DistanceBounded computes the restricted Damerau-Levenshtein distance
// if it is at most limit, and otherwise returns some value greater
// than limit (callers must test d > limit, not a specific sentinel).
// A negative limit always reports exceeded.
func DistanceBounded(a, b fingerprint.F, limit int) int {
	la, lb := len(a), len(b)
	if limit < 0 {
		return limit + 1
	}
	diff := la - lb
	if diff < 0 {
		diff = -diff
	}
	if diff > limit {
		return limit + 1
	}
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	s := scratchPool.Get().(*scratch)
	var d int
	if limit >= la && limit >= lb {
		// The band covers the whole matrix and the distance (at most
		// max(la, lb)) cannot exceed the limit, so skip the band
		// bookkeeping — edge sentinels, per-row minima, early exit —
		// and run the plain full-width recurrence.
		d = s.distanceExact(a, b)
	} else {
		d = s.distanceBounded(a, b, limit)
	}
	scratchPool.Put(s)
	return d
}

// distanceExact is the full-matrix restricted Damerau-Levenshtein
// recurrence: the same transitions as distanceBounded with an
// all-covering band, minus the banding overhead. Exact calls
// (Distance, Normalized) land here.
func (s *scratch) distanceExact(a, b fingerprint.F) int {
	la, lb := len(a), len(b)
	prev2, prev, cur := s.rows(lb + 1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			d := min3(
				prev[j]+1,      // deletion
				cur[j-1]+1,     // insertion
				prev[j-1]+cost, // substitution / match
			)
			if i > 1 && j > 1 && ai == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t // adjacent transposition
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

func (s *scratch) distanceBounded(a, b fingerprint.F, limit int) int {
	la, lb := len(a), len(b)
	prev2, prev, cur := s.rows(lb + 1)
	// Row 0: true values within the band, sentinel beyond it (those
	// cells are never on a path that stays within the limit).
	hi0 := limit
	if hi0 > lb {
		hi0 = lb
	}
	for j := 0; j <= hi0; j++ {
		prev[j] = j
	}
	if hi0 < lb {
		prev[hi0+1] = sentinel
	}
	prevMin := 0
	for i := 1; i <= la; i++ {
		lo, hi := i-limit, i+limit
		if lo < 1 {
			lo = 1
		}
		if hi > lb {
			hi = lb
		}
		// Left edge: the boundary column when it is in band, a
		// sentinel where the band has moved past it (that cell holds a
		// stale row written three iterations ago).
		if lo == 1 {
			cur[0] = i
		} else {
			cur[lo-1] = sentinel
		}
		rowMin := sentinel
		ai := a[i-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			d := min3(
				prev[j]+1,      // deletion
				cur[j-1]+1,     // insertion
				prev[j-1]+cost, // substitution / match
			)
			if i > 1 && j > 1 && ai == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t // adjacent transposition
				}
			}
			cur[j] = d
			if d < rowMin {
				rowMin = d
			}
		}
		// Right edge: next row reads prev[hi+1]; make sure it is not a
		// stale cell from an earlier band position.
		if hi < lb {
			cur[hi+1] = sentinel
		}
		// Every dependency of rows > i runs through rows i-1 and i
		// (the transposition reaches back exactly two rows), and every
		// transition is non-decreasing — so once two consecutive rows
		// exceed the limit, the final cell must too.
		if rowMin > limit && prevMin > limit {
			return limit + 1
		}
		prevMin = rowMin
		prev2, prev, cur = prev, cur, prev2
	}
	if d := prev[lb]; d <= limit {
		return d
	}
	return limit + 1
}

// Normalized divides the edit distance by the length of the longer
// fingerprint, yielding a value in [0, 1]. Two empty fingerprints have
// distance 0.
func Normalized(a, b fingerprint.F) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return float64(Distance(a, b)) / float64(n)
}

// NormalizedBounded computes the normalized distance if it is at most
// limit, returning (d, true) with d exact; otherwise it returns
// (_, false) as soon as the banded DP proves the bound is exceeded.
// This is the linkage predicate for clustering ("are these two words
// within limit of each other?"): the integer budget handed to the
// banded DP is the largest maxD with maxD/maxlen <= limit, derived with
// the same guess-and-nudge float discipline as DistanceSumBounded, so
// the accept/reject decision is bit-identical to computing Normalized
// exactly and comparing — at a fraction of the work for far-apart
// words. A negative limit always reports exceeded; two empty words are
// within any limit >= 0.
func NormalizedBounded(a, b fingerprint.F, limit float64) (float64, bool) {
	if limit < 0 {
		return 0, false
	}
	ml := len(a)
	if len(b) > ml {
		ml = len(b)
	}
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
}

// NewRefSet wraps the reference fingerprints (not copied; the caller
// must not modify them afterwards).
func NewRefSet(refs []fingerprint.F) *RefSet {
	return &RefSet{refs: refs}
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
	for _, rw := range rs.refs {
		if sum >= limit {
			// Distances are non-negative, so the full sum can only be
			// >= limit as well: no later candidate information is lost
			// by stopping here.
			return sum, n, true
		}
		ml := len(f)
		if len(rw) > ml {
			ml = len(rw)
		}
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
		var d int
		if len(rw) == 0 {
			d = len(f)
		} else if len(f) == 0 {
			d = len(rw)
		} else {
			diff := len(f) - len(rw)
			if diff < 0 {
				diff = -diff
			}
			if diff > maxD {
				d = maxD + 1
			} else {
				d = s.distanceBounded(f, rw, maxD)
			}
		}
		if d > maxD {
			return sum, n, true
		}
		sum += float64(d) / mlf
	}
	return sum, n, false
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
