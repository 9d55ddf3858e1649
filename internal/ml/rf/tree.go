// Package rf implements CART decision trees and Breiman-style Random
// Forests (bootstrap aggregation with per-split feature subsampling)
// from scratch on the standard library. It is the classification
// substrate behind IoT Sentinel's one-classifier-per-device-type design
// (Sect. IV-B1), replacing the Weka implementation the paper used.
//
// Inference runs on a flat node layout: each tree is one contiguous
// []flatNode array in preorder, walked by index. Compared to the
// pointer-chased node graph it replaced, the flat walk touches one
// cache-resident array instead of scattered heap objects, allocates
// nothing, and makes the preorder serialization (serialize.go) a direct
// transcription instead of a recursive rebuild. Training still grows
// pointer nodes (the builder needs cheap splicing) and flattens once at
// the end.
//
// A caller that asks many forests one acceptance question about one
// vector — core's classifier bank, per first-seen fingerprint head —
// compiles them once (CompileBank) and scans (Bank.Scan): one pass over
// the vector replaces the tree walks, the decisions are AcceptSoft's bit
// for bit, and AcceptSoft stays as the reference the scan is tested to.
package rf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// treeNode is one node of a CART tree during induction. Leaves have
// feature == -1. The builder representation only: trained trees are
// flattened into Tree.nodes before they ever classify anything.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// counts holds per-class sample counts at the leaf.
	counts []int
	total  int
}

func (n *treeNode) isLeaf() bool { return n.feature < 0 }

// flatNode is one node of a trained tree in the flat array layout.
// Internal nodes use feature/threshold/left/right; leaves (feature < 0)
// use countsOff/total, with their per-class sample counts stored at
// Tree.leafCounts[countsOff : countsOff+nClasses].
type flatNode struct {
	feature   int32
	left      int32
	right     int32
	countsOff int32
	total     int32
	threshold float64
}

// Tree is a single trained CART decision tree in flat-array form. A
// trained tree is stored, and saved, in preorder (node, left subtree,
// right subtree). The loader checks less, and consumers may rely only on
// that: both children of node i sit at indices > i and every node but the
// root has one parent. A breadth-first file loads, so a subtree is found
// by following left/right, never assumed to be an index range.
type Tree struct {
	nodes []flatNode
	// leafCounts concatenates every leaf's per-class sample counts
	// (nClasses entries per leaf, addressed by flatNode.countsOff).
	leafCounts []int32
	// leafProbs caches float64(count)/float64(total) for every
	// leafCounts entry (zero where total == 0), so the probability-
	// averaging hot path does no division per tree walk. The quotients
	// are computed once with the exact same operands the old
	// per-prediction division used, so averaged probabilities are
	// bit-identical.
	leafProbs []float64
	nClasses  int
}

// treeParams controls tree induction.
type treeParams struct {
	maxDepth    int
	minLeaf     int
	maxFeatures int
	nClasses    int
}

// growTree builds a CART tree on the sample indices idx.
func growTree(x [][]float64, y []int, idx []int, p treeParams, rng *rand.Rand) *treeNode {
	return growNode(x, y, idx, p, rng, 0)
}

func growNode(x [][]float64, y []int, idx []int, p treeParams, rng *rand.Rand, depth int) *treeNode {
	counts := classCounts(y, idx, p.nClasses)
	if depth >= p.maxDepth || len(idx) < 2*p.minLeaf || isPure(counts) {
		return &treeNode{feature: -1, counts: counts, total: len(idx)}
	}
	feat, thr, ok := bestSplit(x, y, idx, p, rng)
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
		left:      growNode(x, y, left, p, rng, depth+1),
		right:     growNode(x, y, right, p, rng, depth+1),
	}
}

// flatten converts a freshly grown pointer tree into its flat preorder
// form. The traversal order matches the wire format of serialize.go
// exactly, so a flattened tree serializes by direct transcription.
func flatten(root *treeNode, nClasses int) *Tree {
	t := &Tree{nClasses: nClasses}
	var visit func(n *treeNode) int32
	visit = func(n *treeNode) int32 {
		idx := int32(len(t.nodes))
		t.nodes = append(t.nodes, flatNode{feature: -1, left: -1, right: -1})
		if n.isLeaf() {
			t.nodes[idx].countsOff = int32(len(t.leafCounts))
			t.nodes[idx].total = int32(n.total)
			for _, c := range n.counts {
				t.leafCounts = append(t.leafCounts, int32(c))
			}
			return idx
		}
		t.nodes[idx].feature = int32(n.feature)
		t.nodes[idx].threshold = n.threshold
		t.nodes[idx].left = visit(n.left)
		t.nodes[idx].right = visit(n.right)
		return idx
	}
	visit(root)
	t.buildLeafProbs()
	return t
}

// buildLeafProbs populates the precomputed per-leaf class probabilities
// from leafCounts. Called once per tree at train or load time.
func (t *Tree) buildLeafProbs() {
	t.leafProbs = make([]float64, len(t.leafCounts))
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.feature >= 0 || n.total == 0 {
			continue
		}
		off := n.countsOff
		total := float64(n.total)
		for c := int32(0); c < int32(t.nClasses); c++ {
			t.leafProbs[off+c] = float64(t.leafCounts[off+c]) / total
		}
	}
}

// bestSplit scans a random subset of maxFeatures features and returns
// the split with the lowest weighted Gini impurity.
func bestSplit(x [][]float64, y []int, idx []int, p treeParams, rng *rand.Rand) (feat int, thr float64, ok bool) {
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

		// Sweep thresholds between distinct consecutive values,
		// maintaining incremental left/right class counts.
		leftCounts := make([]int, p.nClasses)
		rightCounts := classCounts(y, sorted, p.nClasses)
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

func classCounts(y []int, idx []int, nClasses int) []int {
	counts := make([]int, nClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	return counts
}

func isPure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

func weightedGini(l []int, nl int, r []int, nr int) float64 {
	n := float64(nl + nr)
	return float64(nl)/n*gini(l, nl) + float64(nr)/n*gini(r, nr)
}

// leafIndex walks x down the flat node array and returns the index of
// the leaf it lands in. The walk is allocation-free and touches only
// the contiguous nodes slice.
func (t *Tree) leafIndex(x []float64) int32 {
	nodes := t.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return i
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Predict returns the majority class at the leaf x falls into.
func (t *Tree) Predict(x []float64) int {
	n := &t.nodes[t.leafIndex(x)]
	// One sub-slice, then range: the bounds check happens once at the
	// slicing instead of on every class.
	counts := t.leafCounts[n.countsOff : int(n.countsOff)+t.nClasses]
	best, bestCount := 0, int32(-1)
	for c, cnt := range counts {
		if cnt > bestCount {
			best, bestCount = c, cnt
		}
	}
	return best
}

// Depth returns the depth of the tree (a single leaf has depth 0). Both
// children sit after their parent, so one reverse pass computes every
// node's subtree depth before its parent reads it — no recursion over a
// (possibly adversarial, loaded-from-disk) tree shape.
func (t *Tree) Depth() int {
	depths := make([]int, len(t.nodes))
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := &t.nodes[i]
		if n.feature < 0 {
			continue
		}
		d := depths[n.left]
		if r := depths[n.right]; r > d {
			d = r
		}
		depths[i] = d + 1
	}
	return depths[0]
}

// TrainTree builds a single CART tree on the full dataset; exported for
// tests and for the forest-size ablation's single-tree baseline.
func TrainTree(x [][]float64, y []int, maxDepth, minLeaf int, seed int64) (*Tree, error) {
	nClasses, err := validate(x, y)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	p := treeParams{
		maxDepth:    maxDepth,
		minLeaf:     minLeaf,
		maxFeatures: len(x[0]),
		nClasses:    nClasses,
	}
	rng := rand.New(rand.NewSource(seed))
	return flatten(growNode(x, y, idx, p, rng, 0), nClasses), nil
}

func validate(x [][]float64, y []int) (nClasses int, err error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("rf: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("rf: %d samples but %d labels", len(x), len(y))
	}
	width := len(x[0])
	if width == 0 {
		return 0, fmt.Errorf("rf: zero-width feature vectors")
	}
	for i, row := range x {
		if len(row) != width {
			return 0, fmt.Errorf("rf: sample %d has width %d, want %d", i, len(row), width)
		}
	}
	for i, c := range y {
		if c < 0 {
			return 0, fmt.Errorf("rf: negative label %d at sample %d", c, i)
		}
		if c+1 > nClasses {
			nClasses = c + 1
		}
	}
	return nClasses, nil
}
