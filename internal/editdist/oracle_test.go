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
// verbatim (but for its element type) as the oracle for the bit-vector
// kernel and its cut-offs: the entire O(n·m) DP, no early exit.
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
			d := min(
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
// and candidate interned through one table, every distance computed by
// the naive DP and accumulated in order, stopping (pruned) before a
// reference when the sum has reached limit, or at one whose distance
// would take it there. n counts the references reached, that one
// included. This is DistanceSumBounded's contract with no budgets.
func naiveDistanceSum(rs *RefSet, f fingerprint.F, limit float64) (sum float64, n int, pruned bool) {
	in := newInterner()
	words := make([][]int, len(rs.refs))
	for i, ref := range rs.refs {
		words[i] = in.word(ref)
	}
	word := in.word(f)
	for _, rw := range words {
		if sum >= limit {
			return sum, n, true
		}
		n++
		ml := max(len(word), len(rw))
		if ml == 0 {
			continue
		}
		next := sum + float64(naiveDistance(word, rw))/float64(ml)
		if next >= limit {
			return sum, n, true
		}
		sum = next
	}
	return sum, n, false
}

func randWord(rng *rand.Rand, n, alphabet int) fingerprint.F {
	w := make(fingerprint.F, n)
	for i := range w {
		w[i] = features.Packed(rng.Intn(alphabet))
	}
	return w
}

// wordLen draws a word length: mostly catalog-sized, one draw in four
// up to three 64-symbol blocks, so the blocked kernel and its carries
// are exercised too.
func wordLen(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return rng.Intn(200)
	}
	return rng.Intn(40)
}

// TestDistanceMatchesNaive checks Distance against the retired
// full-matrix DP across random word shapes and alphabet sizes (small
// alphabets force matches and transpositions).
func TestDistanceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		la, lb := wordLen(rng), wordLen(rng)
		alpha := 1 + rng.Intn(6)
		a, b := randWord(rng, la, alpha), randWord(rng, lb, alpha)
		if got, want := Distance(a, b), naiveDistance(a, b); got != want {
			t.Fatalf("Distance(%v, %v) = %d, naive %d", a, b, got, want)
		}
	}
}

// TestDistanceBoundedMatchesNaive checks the bounded contract at every
// limit: exact when the true distance fits the bound, strictly above
// the bound otherwise.
func TestDistanceBoundedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1500; trial++ {
		la, lb := rng.Intn(32), rng.Intn(32)
		if trial%10 == 0 {
			la, lb = 50+rng.Intn(100), 50+rng.Intn(100)
		}
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
// the retired implementation at limits around the exact sum: sum, n and
// pruned all equal, the sum bit-identical.
func TestDistanceSumBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		nRefs := 1 + rng.Intn(5)
		refs := make([]fingerprint.F, nRefs)
		for i := range refs {
			refs[i] = mkF(1+wordLen(rng), rng.Intn(7))
		}
		rs := NewRefSet(refs)
		cand := mkF(1+wordLen(rng), rng.Intn(9))
		exact, exactN, _ := naiveDistanceSum(rs, cand, math.Inf(1))

		if got, n := rs.DistanceSum(cand); got != exact || n != exactN {
			t.Fatalf("DistanceSum = (%v, %d), naive (%v, %d)", got, n, exact, exactN)
		}

		limits := []float64{
			math.Inf(1), exact, math.Nextafter(exact, math.Inf(1)),
			math.Nextafter(exact, -1), exact / 2, exact * 2,
			0, float64(rng.Intn(4)) * rng.Float64(),
		}
		for _, limit := range limits {
			checkDistanceSum(t, rs, cand, limit)
		}
	}
}

// checkDistanceSum holds DistanceSumBounded to naiveDistanceSum.
func checkDistanceSum(t *testing.T, rs *RefSet, f fingerprint.F, limit float64) {
	t.Helper()
	sum, n, pruned := rs.DistanceSumBounded(f, limit)
	wsum, wn, wpruned := naiveDistanceSum(rs, f, limit)
	if math.Float64bits(sum) != math.Float64bits(wsum) || n != wn || pruned != wpruned {
		t.Fatalf("limit %v: DistanceSumBounded = (%v, %d, %v), naive (%v, %d, %v)", limit, sum, n, pruned, wsum, wn, wpruned)
	}
}

// The zero-allocation tests include pairs past 64 symbols: the blocked
// kernel's state comes from the same pooled scratch.
func TestDistanceBoundedZeroAlloc(t *testing.T) {
	for _, n := range []int{64, 130} {
		a, b := benchWord(n, 1), benchWord(n+5, 3)
		testutil.AssertZeroAllocs(t, "Distance", func() { Distance(a, b) })
		testutil.AssertZeroAllocs(t, "DistanceBounded", func() { DistanceBounded(a, b, 8) })
		testutil.AssertZeroAllocs(t, "DistanceBounded/kernel", func() { DistanceBounded(a, b, n) })
	}
}

func TestDistanceSumZeroAlloc(t *testing.T) {
	rs := NewRefSet([]fingerprint.F{mkF(40, 5), mkF(35, 9), mkF(40, 2), mkF(12, 7), mkF(28, 3), mkF(100, 4)})
	for _, cand := range []fingerprint.F{mkF(40, 1), mkF(90, 1)} {
		testutil.AssertZeroAllocs(t, "DistanceSum", func() { rs.DistanceSum(cand) })
		testutil.AssertZeroAllocs(t, "DistanceSumBounded", func() { rs.DistanceSumBounded(cand, 1.0) })
	}
}
