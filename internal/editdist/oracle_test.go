package editdist

import (
	"math"
	"math/rand"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/testutil"
)

// naiveDistance is the retired full-matrix implementation, kept
// verbatim (but for its element type) as the oracle for the banded
// walk: the entire O(n·m) DP, no band, no early exit.
func naiveDistance[S comparable](a, b []S) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min3(
				prev[j]+1,
				cur[j-1]+1,
				prev[j-1]+cost,
			)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// interner is the retired symbol table: feature symbols mapped to dense
// ints in order of first appearance, so fingerprints compare as int
// words. The production DP compares packed words directly; scoring
// through this table is the oracle that the two notions of character
// equality agree.
type interner struct {
	symbols map[features.Packed]int
}

func newInterner() *interner {
	return &interner{symbols: make(map[features.Packed]int)}
}

func (in *interner) word(f fingerprint.F) []int {
	out := make([]int, len(f))
	for i, p := range f {
		s, ok := in.symbols[p]
		if !ok {
			s = len(in.symbols)
			in.symbols[p] = s
		}
		out[i] = s
	}
	return out
}

// naiveDistanceSum is the retired discrimination scoring: references
// and candidate interned through one table, then every reference fully
// computed by the naive DP and accumulated in order.
func naiveDistanceSum(rs *RefSet, f fingerprint.F) (sum float64, n int) {
	in := newInterner()
	words := make([][]int, len(rs.refs))
	for i, ref := range rs.refs {
		words[i] = in.word(ref)
	}
	word := in.word(f)
	for _, rw := range words {
		ml := len(word)
		if len(rw) > ml {
			ml = len(rw)
		}
		if ml == 0 {
			continue
		}
		sum += float64(naiveDistance(word, rw)) / float64(ml)
	}
	return sum, len(words)
}

func randWord(rng *rand.Rand, n, alphabet int) fingerprint.F {
	w := make(fingerprint.F, n)
	for i := range w {
		w[i] = features.Packed(rng.Intn(alphabet))
	}
	return w
}

// TestDistanceMatchesNaive checks the full-band Distance against the
// retired full-matrix DP across random word shapes and alphabet sizes
// (small alphabets force matches and transpositions).
func TestDistanceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		la, lb := rng.Intn(40), rng.Intn(40)
		alpha := 1 + rng.Intn(6)
		a, b := randWord(rng, la, alpha), randWord(rng, lb, alpha)
		if got, want := Distance(a, b), naiveDistance(a, b); got != want {
			t.Fatalf("Distance(%v, %v) = %d, naive %d", a, b, got, want)
		}
	}
}

// TestDistanceBoundedMatchesNaive checks the banded contract at every
// limit: exact when the true distance fits the bound, strictly above
// the bound otherwise.
func TestDistanceBoundedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1500; trial++ {
		la, lb := rng.Intn(32), rng.Intn(32)
		alpha := 1 + rng.Intn(5)
		a, b := randWord(rng, la, alpha), randWord(rng, lb, alpha)
		want := naiveDistance(a, b)
		for limit := -1; limit <= la+lb+1; limit++ {
			got := DistanceBounded(a, b, limit)
			if want <= limit {
				if got != want {
					t.Fatalf("DistanceBounded(%v, %v, %d) = %d, naive %d", a, b, limit, got, want)
				}
			} else if got <= limit {
				t.Fatalf("DistanceBounded(%v, %v, %d) = %d claims within bound, naive %d", a, b, limit, got, want)
			}
		}
	}
}

// TestDistanceSumBoundedContract checks discrimination scoring against
// the retired implementation: un-pruned sums bit-identical, pruned
// candidates only when the exact sum indeed reaches the limit.
func TestDistanceSumBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		nRefs := 1 + rng.Intn(5)
		refs := make([]fingerprint.F, nRefs)
		for i := range refs {
			refs[i] = mkF(1+rng.Intn(30), rng.Intn(7))
		}
		rs := NewRefSet(refs)
		cand := mkF(1+rng.Intn(30), rng.Intn(9))
		exact, exactN := naiveDistanceSum(rs, cand)

		if got, n := rs.DistanceSum(cand); got != exact || n != exactN {
			t.Fatalf("DistanceSum = (%v, %d), naive (%v, %d)", got, n, exact, exactN)
		}

		limits := []float64{
			math.Inf(1), exact, math.Nextafter(exact, math.Inf(1)),
			math.Nextafter(exact, -1), exact / 2, exact * 2,
			0, float64(rng.Intn(4)) * rng.Float64(),
		}
		for _, limit := range limits {
			sum, _, pruned := rs.DistanceSumBounded(cand, limit)
			if pruned {
				if exact < limit {
					t.Fatalf("limit %v: pruned although exact sum %v < limit", limit, exact)
				}
			} else {
				if sum != exact {
					t.Fatalf("limit %v: completed sum %v, naive %v (must be bit-identical)", limit, sum, exact)
				}
			}
		}
	}
}

func TestDistanceBoundedZeroAlloc(t *testing.T) {
	a, b := benchWord(64, 1), benchWord(64, 3)
	testutil.AssertZeroAllocs(t, "Distance", func() { Distance(a, b) })
	testutil.AssertZeroAllocs(t, "DistanceBounded", func() { DistanceBounded(a, b, 8) })
}

func TestDistanceSumZeroAlloc(t *testing.T) {
	rs := NewRefSet([]fingerprint.F{mkF(40, 5), mkF(35, 9), mkF(40, 2), mkF(12, 7), mkF(28, 3)})
	cand := mkF(40, 1)
	testutil.AssertZeroAllocs(t, "DistanceSum", func() { rs.DistanceSum(cand) })
	testutil.AssertZeroAllocs(t, "DistanceSumBounded", func() { rs.DistanceSumBounded(cand, 1.0) })
}
