package rf

import (
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
			thr := thrs[j][rng.Intn(len(thrs[j]))]
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
