package rf

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Differential oracles for the flat-array inference engine: the
// pre-flattening pointer-node implementation lives on here, rebuilt
// from the wire bytes the production Save emits, and every optimized
// path is checked bit-for-bit against it. The wire format doubles as
// the interface between the two implementations, so these tests also
// pin that Save still emits everything the old engine needed.

// The walk-and-vote predictor, over the flat arrays production keeps
// (leafIndex, leafCounts, leafProbs): what the golden fixture recorded
// and what the accuracy tests score. Production asks only AcceptSoft's
// question, through a Bank.

// leafMajority is the class with the most samples in x's leaf, the
// lowest on a tie.
func leafMajority(t *Tree, x []float64) int {
	n := &t.nodes[t.leafIndex(x)]
	best, bestCount := 0, int32(-1)
	for c, cnt := range t.leafCounts[n.countsOff : int(n.countsOff)+t.nClasses] {
		if cnt > bestCount {
			best, bestCount = c, cnt
		}
	}
	return best
}

// walkProba is each class's share of the trees' leaf majorities.
func walkProba(f *Forest, x []float64) []float64 {
	out := make([]float64, f.nClasses)
	for _, t := range f.trees {
		out[leafMajority(t, x)]++
	}
	for c := range out {
		out[c] /= float64(len(f.trees))
	}
	return out
}

// walkPredict is the majority vote, the lowest class on a tie.
func walkPredict(f *Forest, x []float64) int {
	best, bestP := 0, -1.0
	for c, p := range walkProba(f, x) {
		if p > bestP {
			best, bestP = c, p
		}
	}
	return best
}

// walkSoftProba averages each tree's leaf class fractions, in tree
// order: the value AcceptSoft compares with its threshold.
func walkSoftProba(f *Forest, x []float64) []float64 {
	out := make([]float64, f.nClasses)
	for _, t := range f.trees {
		n := &t.nodes[t.leafIndex(x)]
		if n.total == 0 {
			continue
		}
		for c, p := range t.leafProbs[n.countsOff : int(n.countsOff)+t.nClasses] {
			out[c] += p
		}
	}
	for c := range out {
		out[c] /= float64(len(f.trees))
	}
	return out
}

// depth is a tree's depth (a single leaf has depth 0). Both children sit
// after their parent, so one reverse pass computes every node's subtree
// depth before its parent reads it.
func depth(t *Tree) int {
	depths := make([]int, len(t.nodes))
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if n := &t.nodes[i]; n.feature >= 0 {
			depths[i] = max(depths[n.left], depths[n.right]) + 1
		}
	}
	return depths[0]
}

// trainTree grows one tree on every row of x, trying every feature at
// each split.
func trainTree(x [][]float64, y []int, nClasses, maxDepth int, seed int64) *Tree {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	p := treeParams{maxDepth: maxDepth, minLeaf: 1, maxFeatures: len(x[0]), nClasses: nClasses}
	return flatten(newGrower(x, y, p).growTree(idx, rand.New(rand.NewSource(seed))), nClasses)
}

// refNode mirrors the retired pointer-chased treeNode.
type refNode struct {
	feature   int
	threshold float64
	left      *refNode
	right     *refNode
	counts    []int
	total     int
}

type refTree struct{ root *refNode }

type refForest struct {
	trees    []*refTree
	nClasses int
}

// refForestOf reconstructs the pointer representation of f from its
// own serialized bytes, the way the pre-flattening Load did.
func refForestOf(t *testing.T, f *Forest) *refForest {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var wf wireForest
	if err := json.Unmarshal(buf.Bytes(), &wf); err != nil {
		t.Fatalf("decode wire forest: %v", err)
	}
	rf := &refForest{nClasses: wf.NClasses}
	for _, wt := range wf.Trees {
		built := make([]*refNode, len(wt.Nodes))
		for i, wn := range wt.Nodes {
			built[i] = &refNode{
				feature:   wn.Feature,
				threshold: wn.Threshold,
				counts:    wn.Counts,
				total:     wn.Total,
			}
		}
		for i, wn := range wt.Nodes {
			if wn.Feature >= 0 {
				built[i].left = built[wn.Left]
				built[i].right = built[wn.Right]
			}
		}
		rf.trees = append(rf.trees, &refTree{root: built[0]})
	}
	return rf
}

func (n *refNode) isLeaf() bool { return n.feature < 0 }

func (t *refTree) leafOf(x []float64) *refNode {
	n := t.root
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

func (t *refTree) predict(x []float64) int {
	leaf := t.leafOf(x)
	best, bestCount := 0, -1
	for c, cnt := range leaf.counts {
		if cnt > bestCount {
			best, bestCount = c, cnt
		}
	}
	return best
}

func (f *refForest) proba(x []float64) []float64 {
	votes := make([]float64, f.nClasses)
	for _, t := range f.trees {
		votes[t.predict(x)]++
	}
	for c := range votes {
		votes[c] /= float64(len(f.trees))
	}
	return votes
}

func (f *refForest) predict(x []float64) int {
	probs := f.proba(x)
	best, bestP := 0, -1.0
	for c, p := range probs {
		if p > bestP {
			best, bestP = c, p
		}
	}
	return best
}

func (f *refForest) softProba(x []float64) []float64 {
	probs := make([]float64, f.nClasses)
	for _, t := range f.trees {
		leaf := t.leafOf(x)
		total := 0
		for _, c := range leaf.counts {
			total += c
		}
		if total == 0 {
			continue
		}
		for c, n := range leaf.counts {
			probs[c] += float64(n) / float64(total)
		}
	}
	for c := range probs {
		probs[c] /= float64(len(f.trees))
	}
	return probs
}

func refDepth(n *refNode) int {
	if n.isLeaf() {
		return 0
	}
	l, r := refDepth(n.left), refDepth(n.right)
	if r > l {
		l = r
	}
	return l + 1
}

// refImportance is the retired recursive mean-decrease-in-impurity
// implementation, verbatim.
func (f *refForest) importance(nFeatures int) []float64 {
	imp := make([]float64, nFeatures)
	for _, t := range f.trees {
		total := refRootTotal(t.root)
		if total == 0 {
			continue
		}
		refAccumulate(t.root, imp, float64(total))
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum > 0 {
		for i := range imp {
			imp[i] /= sum
		}
	}
	return imp
}

func refRootTotal(n *refNode) int {
	if n.isLeaf() {
		return n.total
	}
	return refRootTotal(n.left) + refRootTotal(n.right)
}

func refAccumulate(n *refNode, imp []float64, rootN float64) (counts []int, total int) {
	if n.isLeaf() {
		return n.counts, n.total
	}
	lc, ln := refAccumulate(n.left, imp, rootN)
	rc, rn := refAccumulate(n.right, imp, rootN)
	counts = make([]int, len(lc))
	for i := range lc {
		counts[i] = lc[i] + rc[i]
	}
	total = ln + rn
	if total > 0 && n.feature >= 0 && n.feature < len(imp) {
		parentGini := gini(counts, total)
		childGini := weightedGini(lc, ln, rc, rn)
		gain := parentGini - childGini
		if gain > 0 {
			imp[n.feature] += gain * float64(total) / rootN
		}
	}
	return counts, total
}

// oracleForests trains a few deterministic forests of varying shape.
func oracleForests(t *testing.T) []*Forest {
	t.Helper()
	var out []*Forest
	for _, cfg := range []Config{
		{Trees: 7, MaxDepth: 6, Seed: 3},
		{Trees: 25, Seed: 44},
		{Trees: 3, MaxDepth: 2, MinLeaf: 5, Seed: 7},
	} {
		x, y := twoBlobs(60, 3, cfg.Seed)
		f, err := Train(x, y, cfg)
		if err != nil {
			t.Fatalf("Train(%+v): %v", cfg, err)
		}
		out = append(out, f)
	}
	return out
}

func oracleProbes(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	probes := make([][]float64, n)
	for i := range probes {
		probes[i] = []float64{6 * rng.NormFloat64(), 6 * rng.NormFloat64()}
	}
	return probes
}

func TestFlatEngineMatchesPointerOracle(t *testing.T) {
	for fi, f := range oracleForests(t) {
		ref := refForestOf(t, f)
		for pi, x := range oracleProbes(200, int64(100+fi)) {
			if got, want := walkPredict(f, x), ref.predict(x); got != want {
				t.Fatalf("forest %d probe %d: predict = %d, oracle %d", fi, pi, got, want)
			}
			checkFloats(t, "proba", walkProba(f, x), ref.proba(x))
			checkFloats(t, "soft proba", walkSoftProba(f, x), ref.softProba(x))
		}
	}
}

func TestDepthMatchesOracle(t *testing.T) {
	for fi, f := range oracleForests(t) {
		ref := refForestOf(t, f)
		for ti, tree := range f.trees {
			if got, want := depth(tree), refDepth(ref.trees[ti].root); got != want {
				t.Errorf("forest %d tree %d: depth = %d, oracle %d", fi, ti, got, want)
			}
		}
	}
}

func TestFeatureImportanceMatchesOracle(t *testing.T) {
	for fi, f := range oracleForests(t) {
		ref := refForestOf(t, f)
		got := f.FeatureImportance(2)
		want := ref.importance(2)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("forest %d: importance[%d] = %v, oracle %v (must be bit-identical)", fi, i, got[i], want[i])
			}
		}
	}
}

// TestAcceptSoftMatchesSoftProba stresses the early-exit acceptance
// against the exact decision on the pointer oracle's soft probability,
// including thresholds placed exactly on and one ulp around it, where an
// unsound bound would flip the outcome.
func TestAcceptSoftMatchesSoftProba(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for fi, f := range oracleForests(t) {
		ref := refForestOf(t, f)
		for _, x := range oracleProbes(100, int64(500+fi)) {
			probs := ref.softProba(x)
			for class := 0; class < f.nClasses; class++ {
				p := probs[class]
				thrs := []float64{
					p, math.Nextafter(p, 2), math.Nextafter(p, -1),
					0, 1, 0.5, rng.Float64(),
				}
				for _, thr := range thrs {
					want := p >= thr
					if got := f.AcceptSoft(x, class, thr); got != want {
						t.Fatalf("forest %d class %d thr %v (p=%v): AcceptSoft = %v, want %v",
							fi, class, thr, p, got, want)
					}
				}
			}
		}
	}
}

func BenchmarkAcceptSoft(b *testing.B) {
	x, y := twoBlobs(80, 4, 11)
	f, err := Train(x, y, Config{Trees: 25, Seed: 5})
	if err != nil {
		b.Fatalf("Train: %v", err)
	}
	probe := []float64{1.5, 2.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AcceptSoft(probe, 1, 0.5)
	}
}

// The trainer's oracle: the split search and node growth as they stood
// before the histogram sweep — one closure sort of the node's rows per
// tried feature — kept verbatim, and the grower held to it split for
// split and random draw for random draw.

func refBestSplit(x [][]float64, y []int, idx []int, p treeParams, rng *rand.Rand) (feat int, thr float64, ok bool) {
	nFeat := len(x[idx[0]])
	order := rng.Perm(nFeat)
	tried := 0

	bestGini := math.Inf(1)
	vals := make([]float64, 0, len(idx))
	sorted := make([]int, len(idx))

	for _, f := range order {
		if tried >= p.maxFeatures && ok {
			break
		}
		tried++

		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })
		vals = vals[:0]
		for _, i := range sorted {
			vals = append(vals, x[i][f])
		}
		if vals[0] == vals[len(vals)-1] {
			continue // constant feature in this node
		}

		leftCounts := make([]int, p.nClasses)
		rightCounts := refClassCounts(y, sorted, p.nClasses)
		nLeft := 0
		for i := 0; i < len(sorted)-1; i++ {
			c := y[sorted[i]]
			leftCounts[c]++
			rightCounts[c]--
			nLeft++
			if vals[i] == vals[i+1] {
				continue
			}
			g := weightedGini(leftCounts, nLeft, rightCounts, len(sorted)-nLeft)
			if g < bestGini {
				bestGini = g
				feat = f
				thr = (vals[i] + vals[i+1]) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func refClassCounts(y []int, idx []int, nClasses int) []int {
	counts := make([]int, nClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	return counts
}

func refGrowNode(x [][]float64, y []int, idx []int, p treeParams, rng *rand.Rand, depth int) *treeNode {
	counts := refClassCounts(y, idx, p.nClasses)
	if depth >= p.maxDepth || len(idx) < 2*p.minLeaf || isPure(counts) {
		return &treeNode{feature: -1, counts: counts, total: len(idx)}
	}
	feat, thr, ok := refBestSplit(x, y, idx, p, rng)
	if !ok {
		return &treeNode{feature: -1, counts: counts, total: len(idx)}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < p.minLeaf || len(right) < p.minLeaf {
		return &treeNode{feature: -1, counts: counts, total: len(idx)}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      refGrowNode(x, y, left, p, rng, depth+1),
		right:     refGrowNode(x, y, right, p, rng, depth+1),
	}
}

// splitCase is one seeded training set and node for the trainer oracle.
// Its columns cover what the histogram must get right: flags, small and
// negative integers, a column holding both zeros, exactly maxDistinct and
// maxDistinct+1 values (the last that fits, the first that is sorted),
// continuous values and a constant. Seeds rotate through three kinds of
// node: a large one, a bootstrap on top of one copy of every row, so the
// two boundary columns hold every value they can; a small one, two to
// nine draws, where impurities tie within and across columns and the
// first must win; and one in which no column varies.
func splitCase(seed int64) (x [][]float64, y []int, idx []int, p treeParams) {
	rng := rand.New(rand.NewSource(seed))
	n := 2*(maxDistinct+1) + rng.Intn(80)
	p = treeParams{maxDepth: 24, minLeaf: 1 + rng.Intn(3), nClasses: 2 + rng.Intn(4)}
	negZero := math.Copysign(0, -1)
	x = make([][]float64, n)
	y = make([]int, n)
	for i := range x {
		x[i] = []float64{
			float64(rng.Intn(2)),
			float64(rng.Intn(6)),
			float64(rng.Intn(7) - 3),
			[]float64{negZero, 0, 1, -1}[rng.Intn(4)],
			float64(i % maxDistinct),
			float64(i % (maxDistinct + 1)),
			rng.NormFloat64(),
			-rng.ExpFloat64(),
			7,
			float64(rng.Intn(2)),
		}
		if seed%3 == 0 {
			x[i] = []float64{1, negZero, -4}
		}
		y[i] = rng.Intn(p.nClasses)
	}
	p.maxFeatures = []int{1, 3, len(x[0])}[rng.Intn(3)]
	draws := n
	if seed%3 == 2 {
		draws = 2 + rng.Intn(8)
	} else {
		for i := range x {
			idx = append(idx, i)
		}
	}
	for i := 0; i < draws; i++ {
		idx = append(idx, rng.Intn(n))
	}
	return x, y, idx, p
}

func TestBestSplitMatchesSortOracle(t *testing.T) {
	found := 0
	for seed := int64(1); seed <= 600; seed++ {
		x, y, idx, p := splitCase(seed)
		refRNG := rand.New(rand.NewSource(seed))
		wantFeat, wantThr, wantOK := refBestSplit(x, y, idx, p, refRNG)

		g := newGrower(x, y, p)
		g.rng = rand.New(rand.NewSource(seed))
		copy(g.counts, refClassCounts(y, idx, p.nClasses))
		feat, thr, ok := g.bestSplit(idx)

		if feat != wantFeat || math.Float64bits(thr) != math.Float64bits(wantThr) || ok != wantOK {
			t.Fatalf("seed %d: bestSplit = (%d, %v, %v), sort oracle (%d, %v, %v)",
				seed, feat, thr, ok, wantFeat, wantThr, wantOK)
		}
		if got, want := g.rng.Int63(), refRNG.Int63(); got != want {
			t.Fatalf("seed %d: the RNG stands at %d after bestSplit, at %d after the oracle", seed, got, want)
		}
		if ok && seed%3 == 0 {
			t.Fatalf("seed %d: a split of a node in which no column varies", seed)
		}
		if ok {
			found++
		}
	}
	if found < 350 {
		t.Fatalf("only %d nodes had a split", found)
	}
}

// TestGrowTreeMatchesSortOracle grows whole trees both ways — MinLeaf
// above 1, in-place partition against appended halves — and compares the
// flattened result, leaf counts and all.
func TestGrowTreeMatchesSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		x, y, idx, p := splitCase(seed)
		want := flatten(refGrowNode(x, y, idx, p, rand.New(rand.NewSource(seed)), 0), p.nClasses)
		got := flatten(newGrower(x, y, p).growTree(append([]int(nil), idx...), rand.New(rand.NewSource(seed))), p.nClasses)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (minLeaf %d, %d classes): tree of %d nodes, sort oracle's has %d",
				seed, p.minLeaf, p.nClasses, len(got.nodes), len(want.nodes))
		}
	}
}
