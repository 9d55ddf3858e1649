package rf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"iotsentinel/internal/testutil"
)

// breadthFirstTree is a three-level tree laid out level by level: it
// passes Load (children after their parent, one parent each) and is not
// preorder — node 1's subtree is {1, 3, 4}, not an index range. Its five
// leaves hold distinct class-1 fractions, so a scan that numbered leaves
// by index would answer differently from the walk.
const breadthFirstTree = `{"nodes":[` +
	`{"f":0,"t":0.5,"l":1,"r":2},` +
	`{"f":1,"t":0.5,"l":3,"r":4},` +
	`{"f":1,"t":1.5,"l":5,"r":6},` +
	`{"f":-1,"c":[9,1],"n":10,"l":-1,"r":-1},` +
	`{"f":2,"t":-1,"l":7,"r":8},` +
	`{"f":-1,"c":[3,7],"n":10,"l":-1,"r":-1},` +
	`{"f":-1,"c":[0,10],"n":10,"l":-1,"r":-1},` +
	`{"f":-1,"c":[6,4],"n":10,"l":-1,"r":-1},` +
	`{"f":-1,"c":[1,9],"n":10,"l":-1,"r":-1}]}`

// Hand-written trees no training run grows: a root that is a leaf, and a
// split whose right leaf saw no samples (total == 0, which AcceptSoft
// skips).
const (
	singleLeafTree = `{"nodes":[{"f":-1,"c":[1,3],"n":4,"l":-1,"r":-1}]}`
	emptyLeafTree  = `{"nodes":[{"f":3,"t":2,"l":1,"r":2},` +
		`{"f":-1,"c":[1,4],"n":5,"l":-1,"r":-1},{"f":-1,"c":[0,0],"l":-1,"r":-1}]}`
)

func loadTrees(t testing.TB, trees ...string) *Forest {
	t.Helper()
	f, err := Load(strings.NewReader(`{"version":1,"nClasses":2,"trees":[` + strings.Join(trees, ",") + `]}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return f
}

const bankTestWidth = 6

// bankTestForests returns forests of 1, 2, 25 and 40 trees grown on
// label noise (so they grow wide: the test insists one tree passes 64
// leaves), the 25-tree one with the hand-written trees spliced in among
// its always-walked trees, plus a forest of the hand-written trees alone.
func bankTestForests(t testing.TB) []*Forest {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	x := make([][]float64, 400)
	y := make([]int, len(x))
	for i := range x {
		x[i] = make([]float64, bankTestWidth)
		for j := range x[i] {
			x[i][j] = float64(rng.Intn(9) - 2)
		}
		y[i] = rng.Intn(2)
	}
	hand := loadTrees(t, breadthFirstTree, singleLeafTree, emptyLeafTree)
	out := []*Forest{hand}
	for _, n := range []int{1, 2, 25, 40} {
		f, err := Train(x, y, Config{Trees: n, Seed: int64(n)})
		if err != nil {
			t.Fatalf("Train(%d trees): %v", n, err)
		}
		if n == 25 {
			copy(f.trees[2:], hand.trees)
		}
		out = append(out, f)
	}
	widest := 0
	for _, f := range out {
		for _, tr := range f.trees {
			widest = max(widest, len(tr.leafCounts)/tr.nClasses)
		}
	}
	if widest <= 64 {
		t.Fatalf("widest tree has %d leaves: the multi-word path is not exercised", widest)
	}
	return out
}

// bankTestProbes mixes, per coordinate, the values a scan could get
// wrong: zero, a threshold of that very feature (the <= boundary), its
// neighbours one ulp away, NaN, both infinities, negatives.
func bankTestProbes(forests []*Forest, n int) [][]float64 {
	thrs := make([][]float64, bankTestWidth)
	for _, f := range forests {
		for _, tr := range f.trees {
			for _, nd := range tr.nodes {
				if nd.feature >= 0 {
					thrs[nd.feature] = append(thrs[nd.feature], nd.threshold)
				}
			}
		}
	}
	fill := func(v float64) []float64 {
		x := make([]float64, bankTestWidth)
		for i := range x {
			x[i] = v
		}
		return x
	}
	probes := [][]float64{fill(0), fill(math.NaN()), fill(math.Inf(1)), fill(math.Inf(-1)), fill(-3), fill(math.MaxFloat64)}
	rng := rand.New(rand.NewSource(29))
	for len(probes) < n {
		x := make([]float64, bankTestWidth)
		for j := range x {
			thr := 0.0 // for a feature no split tests
			if len(thrs[j]) > 0 {
				thr = thrs[j][rng.Intn(len(thrs[j]))]
			}
			switch rng.Intn(10) {
			case 0:
				x[j] = 0
			case 1, 2:
				x[j] = thr
			case 3:
				x[j] = math.Nextafter(thr, math.Inf(1))
			case 4:
				x[j] = math.Nextafter(thr, math.Inf(-1))
			case 5:
				x[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			case 6:
				x[j] = -rng.Float64() * 4
			default:
				x[j] = float64(rng.Intn(9) - 2)
			}
		}
		probes = append(probes, x)
	}
	return probes
}

// checkBankScan holds one compiled scan to AcceptSoft, forest by forest.
func checkBankScan(t testing.TB, forests []*Forest, b *Bank, x []float64, class int, thr float64, words []uint64) []uint64 {
	t.Helper()
	accepted := make([]uint64, (len(forests)+63)/64)
	words = b.Scan(x, words, accepted)
	for i, f := range forests {
		got := accepted[i/64]>>(i%64)&1 == 1
		if want := f.AcceptSoft(x, class, thr); got != want {
			t.Fatalf("class %d thr %v forest %d (%d trees) x=%v: scan accepts = %v, AcceptSoft = %v",
				class, thr, i, len(f.trees), x, got, want)
		}
	}
	return words
}

func TestBankScanMatchesAcceptSoft(t *testing.T) {
	forests := bankTestForests(t)
	probes := bankTestProbes(forests, 600)
	for _, thr := range []float64{0.3, 0.5, 0.9, 0, 1, math.NaN()} {
		for class := 0; class < 2; class++ {
			b, err := CompileBank(forests, class, thr, bankTestWidth)
			if err != nil {
				t.Fatalf("CompileBank(class %d, thr %v): %v", class, thr, err)
			}
			var words []uint64
			for _, x := range probes {
				words = checkBankScan(t, forests, b, x, class, thr, words)
			}
		}
	}
}

// TestBankCompilesOnlyTheAlwaysWalkedTrees pins the split between the
// mask pass and the lazy tail, and that the tail is really reached: with
// every tree compiled the test above could not fail on it.
func TestBankCompilesOnlyTheAlwaysWalkedTrees(t *testing.T) {
	for _, c := range []struct {
		trees int
		thr   float64
		want  int
	}{{25, 0.5, 13}, {40, 0.5, 21}, {25, 0.9, 3}, {25, 0.3, 8}, {1, 0.5, 1}, {2, 0.5, 2}, {25, math.NaN(), 25}} {
		accept, reject := softBounds(c.trees, c.thr)
		if got := alwaysWalked(c.trees, accept, reject); got != c.want {
			t.Errorf("alwaysWalked(%d trees, thr %v) = %d, want %d", c.trees, c.thr, got, c.want)
		}
	}
	forests := bankTestForests(t)
	b, err := CompileBank(forests, 1, 0.5, bankTestWidth)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 1, 2, 13, 21} {
		if got := len(b.forests[i].compiled); got != want {
			t.Errorf("forest %d: compiled %d of %d trees, want %d", i, got, len(forests[i].trees), want)
		}
	}
}

// TestBankScanBreadthFirstTree is the model file a leaf numbering by
// index range would mis-scan: Load accepts it, leafIndex walks it by
// following indices, and the compiled scan must land in the same leaf
// for a probe into each of its five.
func TestBankScanBreadthFirstTree(t *testing.T) {
	forests := []*Forest{loadTrees(t, breadthFirstTree)}
	probes := [][]float64{{0, 0, 0}, {0, 1, -2}, {0, 1, 0}, {1, 1, 0}, {1, 2, 0}}
	leaves := map[int32]bool{}
	for _, x := range probes {
		leaves[forests[0].trees[0].leafIndex(x)] = true
	}
	if len(leaves) != 5 {
		t.Fatalf("probes reach %d of the 5 leaves", len(leaves))
	}
	// One tree: the forest's probability is the leaf's, so a threshold
	// between two leaf values tells them apart.
	for _, thr := range []float64{0.05, 0.3, 0.5, 0.8, 0.95} {
		for class := 0; class < 2; class++ {
			b, err := CompileBank(forests, class, thr, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range probes {
				checkBankScan(t, forests, b, x, class, thr, nil)
			}
		}
	}
}

// combTree is a chain of splits on feature feat, each sending x[feat] <=
// j+0.5 left to leaf j, one leaf per byte of leaves: x[feat] = k exits at
// leaf min(k, len(leaves)-1). Leaf bytes give the class-1 value: '1' is
// 1, '0' is 0, 'h' is 1/2, 'e' an empty leaf (total 0, which AcceptSoft
// skips). Split j is node 2j, its left leaf node 2j+1.
func combTree(feat int, leaves string) string {
	var sb strings.Builder
	sb.WriteString(`{"nodes":[`)
	leaf := func(c byte) string {
		return map[byte]string{'0': `[1,0],"n":1`, '1': `[0,1],"n":1`, 'h': `[1,1],"n":2`, 'e': `[0,0]`}[c]
	}
	for j := 0; j < len(leaves)-1; j++ {
		fmt.Fprintf(&sb, `{"f":%d,"t":%d.5,"l":%d,"r":%d},{"f":-1,"c":%s,"l":-1,"r":-1},`, feat, j, 2*j+1, 2*j+2, leaf(leaves[j]))
	}
	fmt.Fprintf(&sb, `{"f":-1,"c":%s,"l":-1,"r":-1}]}`, leaf(leaves[len(leaves)-1]))
	return sb.String()
}

// combLeaves is n leaves alternating 0 and 1, from 0.
func combLeaves(n int) string { return strings.Repeat("01", n/2+1)[:n] }

// checkBankAll holds a bank of forests to AcceptSoft at both classes and
// several thresholds, on bankTestProbes drawn from the forests' own splits.
func checkBankAll(t *testing.T, forests []*Forest) {
	t.Helper()
	probes := bankTestProbes(forests, 300)
	for _, thr := range []float64{0.5, 0.3, 0.9, math.NaN()} {
		for class := 0; class < 2; class++ {
			b, err := CompileBank(forests, class, thr, bankTestWidth)
			if err != nil {
				t.Fatal(err)
			}
			var words []uint64
			for _, x := range probes {
				words = checkBankScan(t, forests, b, x, class, thr, words)
			}
		}
	}
}

// TestBankPacksTreesIntoWords pins where trees land: side by side in a
// word while they fit, a new word for one that does not, a word of its
// own (and no vote words for its forest) for one wider than 64 leaves,
// and a new word for every forest.
func TestBankPacksTreesIntoWords(t *testing.T) {
	forests := []*Forest{
		// 5 trees at 0.5: the first 3 compiled.
		loadTrees(t, combTree(0, combLeaves(64)), combTree(1, "10"), combTree(2, "011"), combTree(3, "1"), combTree(4, "01")),
		loadTrees(t, combTree(0, combLeaves(63)), combTree(1, "01"), combTree(2, "1"), combTree(3, "0"), combTree(4, "10")),
		loadTrees(t, combTree(5, "10"), combTree(0, combLeaves(70)), combTree(1, "011"), combTree(2, "1"), combTree(3, "1")),
		loadTrees(t, combTree(0, combLeaves(62)), combTree(1, "01")),
	}
	b, err := CompileBank(forests, 1, 0.5, bankTestWidth)
	if err != nil {
		t.Fatal(err)
	}
	type at struct{ word, shift int32 }
	for i, want := range []struct {
		trees  []at
		lo, hi int32
	}{
		{[]at{{0, 0}, {1, 0}, {1, 2}}, 0, 2}, // 64 leaves fill word 0
		{[]at{{2, 0}, {3, 0}, {3, 2}}, 2, 4}, // 63 + 2 > 64
		{[]at{{4, 0}, {5, 0}, {7, 0}}, 0, 0}, // 70 leaves: words 5 and 6, no votes
		{[]at{{8, 0}, {8, 62}}, 8, 9},        // 62 + 2 = 64 share word 8
	} {
		bf := &b.forests[i]
		for j, ct := range bf.compiled {
			if got := (at{ct.word, ct.shift}); got != want.trees[j] {
				t.Errorf("forest %d tree %d at word %d bit %d, want word %d bit %d", i, j, got.word, got.shift, want.trees[j].word, want.trees[j].shift)
			}
		}
		if bf.votes.lo != want.lo || bf.votes.hi != want.hi {
			t.Errorf("forest %d: vote words [%d, %d), want [%d, %d)", i, bf.votes.lo, bf.votes.hi, want.lo, want.hi)
		}
	}
	if len(b.init) != 9 {
		t.Errorf("%d words, want 9", len(b.init))
	}
	checkBankAll(t, forests)
}

// TestBankCountsVotes drives one 25-tree forest of 0/1 leaves (K = 13
// compiled) to vote counts of 0 (rejected at tree 13), 13 (accepted there)
// and 6 (the tail decides): x[0] picks the compiled trees' exits, x[1]
// the tail's. A fractional exit must leave the count to the sequential
// sum, which then decides on the 1/2 a count would have dropped.
func TestBankCountsVotes(t *testing.T) {
	votes := []int{0, 6, 13}
	trees := make([]string, 25)
	for j := range trees {
		if j >= 13 {
			trees[j] = combTree(1, "01")
			continue
		}
		leaves := []byte("000")
		for k, n := range votes {
			if j < n {
				leaves[k] = '1'
			}
		}
		trees[j] = combTree(0, string(leaves))
	}
	counted := loadTrees(t, trees...)
	// Twelve compiled trees vote 1 at x[0] = 1, the thirteenth 1/2 and
	// the tail 0: 12.5 of 25, accepted only by the final comparison.
	for j := range trees {
		switch {
		case j < 12:
			trees[j] = combTree(0, "01")
		case j == 12:
			trees[j] = combTree(0, "0h")
		default:
			trees[j] = combTree(0, "00")
		}
	}
	frac := loadTrees(t, trees...)
	forests := []*Forest{counted, frac}
	b, err := CompileBank(forests, 1, 0.5, bankTestWidth)
	if err != nil {
		t.Fatal(err)
	}
	var words []uint64
	for x0 := range votes {
		for x1 := 0; x1 < 2; x1++ {
			x := []float64{float64(x0), float64(x1), 0, 0, 0, 0}
			words = checkBankScan(t, forests, b, x, 1, 0.5, words)
			if n, ok := b.countVotes(&b.forests[0], words); !ok || n != votes[x0] {
				t.Errorf("x=%v: countVotes = %d, %v; want %d, true", x, n, ok, votes[x0])
			}
			_, ok := b.countVotes(&b.forests[1], words)
			if fracExit := x0 >= 1; ok == fracExit {
				t.Errorf("x=%v: countVotes ok = %v with a fractional exit %v", x, ok, fracExit)
			}
		}
	}
	if !frac.AcceptSoft([]float64{1, 0, 0, 0, 0, 0}, 1, 0.5) {
		t.Fatal("the fractional forest does not sit on the threshold")
	}
	checkBankAll(t, forests)
}

// TestBankNonFiniteSplits puts ±Inf and NaN thresholds, which no model
// file can carry, into packed trees, and ±Inf, NaN and the largest
// finite values into every coordinate. The trees share one word, so a
// split on feature 0 at a threshold tree 0 already tests merges into
// tree 0's op.
func TestBankNonFiniteSplits(t *testing.T) {
	f := loadTrees(t, combTree(0, "0110"), combTree(0, "1001"), combTree(1, "011"), combTree(0, "01"), combTree(0, "10"))
	inf, nan := math.Inf(1), math.NaN()
	for i, thrs := range [][]float64{{-inf, 1.5, inf}, {nan, inf, -inf}, {nan, inf}, {1.5}, {1.5}} {
		for j, thr := range thrs {
			f.trees[i].nodes[2*j].threshold = thr
		}
	}
	forests := []*Forest{f}
	b, err := CompileBank(forests, 1, math.NaN(), bankTestWidth) // every tree compiled
	if err != nil {
		t.Fatal(err)
	}
	if len(b.init) != 1 {
		t.Fatalf("%d words, want 1", len(b.init))
	}
	// 3 + 3 + 2 + 1 + 1 splits: the three NaN ones fold into init, and
	// tree 1's ±Inf and the two 1.5s merge into tree 0's ops.
	if len(b.ops) != 4 {
		t.Errorf("%d ops, want 4", len(b.ops))
	}
	vals := []float64{-inf, -math.MaxFloat64, -1, 0, 1, 1.5, 2, math.MaxFloat64, inf, nan}
	var words []uint64
	for _, x0 := range vals {
		for _, x1 := range vals {
			x := []float64{x0, x1, 0, 0, 0, 0}
			for _, thr := range []float64{0.5, 0.3, 0.9} {
				b, err := CompileBank(forests, 1, thr, bankTestWidth)
				if err != nil {
					t.Fatal(err)
				}
				words = checkBankScan(t, forests, b, x, 1, thr, words)
			}
		}
	}
}

func TestCompileBankErrors(t *testing.T) {
	forests := []*Forest{loadTrees(t, emptyLeafTree)} // splits on feature 3
	for _, c := range []struct{ class, width int }{{2, 4}, {-1, 4}, {1, 3}} {
		if _, err := CompileBank(forests, c.class, 0.5, c.width); err == nil {
			t.Errorf("CompileBank(class %d, width %d) = nil error", c.class, c.width)
		}
	}
	b, err := CompileBank(nil, 1, 0.5, 4)
	if err != nil {
		t.Fatalf("empty bank: %v", err)
	}
	b.Scan(make([]float64, 4), nil, nil)
}

func TestBankScanZeroAlloc(t *testing.T) {
	forests := bankTestForests(t)
	b, err := CompileBank(forests, 1, 0.5, bankTestWidth)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0, 3, 0, 2, 5}
	accepted := make([]uint64, 1)
	words := b.Scan(x, nil, accepted)
	testutil.AssertZeroAllocs(t, "Bank.Scan", func() { words = b.Scan(x, words, accepted) })
}

// BenchmarkBankScan is BenchmarkAcceptSoft's forest, 27 times over, asked
// the bank's question in one scan; BenchmarkAcceptSoft × 27 is the loop
// it replaces.
func BenchmarkBankScan(b *testing.B) {
	x, y := twoBlobs(80, 4, 11)
	forests := make([]*Forest, 27)
	for i := range forests {
		f, err := Train(x, y, Config{Trees: 25, Seed: int64(5 + i)})
		if err != nil {
			b.Fatalf("Train: %v", err)
		}
		forests[i] = f
	}
	bank, err := CompileBank(forests, 1, 0.5, 2)
	if err != nil {
		b.Fatal(err)
	}
	probes := oracleProbes(64, 77)
	accepted := make([]uint64, 1)
	var words []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words = bank.Scan(probes[i%len(probes)], words, accepted)
	}
}
