// Package rf implements CART decision trees and Breiman-style Random
// Forests (bootstrap aggregation with per-split feature subsampling)
// from scratch on the standard library. It is the classification
// substrate behind IoT Sentinel's one-classifier-per-device-type design
// (Sect. IV-B1), replacing the Weka implementation the paper used.
//
// The package holds what core's classifier bank runs and nothing else:
// Train, Save/Load/ValidateFeatures, CompileBank/Bank.Scan,
// FeatureImportance, and AcceptSoft. The bank asks every forest one
// acceptance question about one vector — per first-seen fingerprint head
// — so it compiles them once (CompileBank) and scans (Bank.Scan): one pass
// over the vector replaces the tree walks, the decisions are AcceptSoft's
// bit for bit, and AcceptSoft stays as the reference the scan is tested
// to.
//
// A trained tree is one contiguous []flatNode array in preorder, walked
// by index, which makes the preorder serialization (serialize.go) a
// direct transcription instead of a recursive rebuild. Training grows
// pointer nodes (the builder needs cheap splicing) and flattens once at
// the end.
package rf

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// leafCounts entry (zero where total == 0), so neither AcceptSoft nor
	// the compiled scan divides per tree.
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

// maxDistinct is how many distinct values of one column in one node the
// split search keeps in its histogram. F′ columns are flags and small
// integers — a handful of values each — so nearly every (node, feature)
// fits; one that does not is sorted instead (sweepSorted).
const maxDistinct = 16

// grower grows CART trees over one training set. It owns every piece of
// working memory the split search needs, sized once, so growing a node
// allocates only what the tree keeps (its nodes and their leaf counts).
// One grower serves one goroutine, tree after tree.
type grower struct {
	x [][]float64
	y []int
	p treeParams

	rng *rand.Rand
	// order is the node's feature permutation, spill the right-hand rows
	// of a node while it is partitioned in place.
	order []int
	spill []int
	// counts are the node's per-class sample counts; left and right the
	// sweep's running counts either side of the candidate threshold.
	counts, left, right []int
	// vals are the distinct values of one column in one node in order of
	// first appearance, hist their per-class counts (nClasses per value)
	// and rank the indices of vals in ascending value order.
	vals [maxDistinct]float64
	hist []int
	rank [maxDistinct]int
	// pairs is the sort path's (value, class) list.
	pairs []valueClass
}

type valueClass struct {
	v float64
	c int
}

func newGrower(x [][]float64, y []int, p treeParams) *grower {
	return &grower{
		x: x, y: y, p: p,
		order:  make([]int, len(x[0])),
		counts: make([]int, p.nClasses),
		left:   make([]int, p.nClasses),
		right:  make([]int, p.nClasses),
		hist:   make([]int, maxDistinct*p.nClasses),
	}
}

// growTree builds a CART tree on the sample indices idx, which it
// reorders, drawing from rng.
func (g *grower) growTree(idx []int, rng *rand.Rand) *treeNode {
	g.rng = rng
	if len(g.spill) < len(idx) {
		g.spill = make([]int, len(idx))
	}
	return g.growNode(idx, 0)
}

func (g *grower) growNode(idx []int, depth int) *treeNode {
	clear(g.counts)
	for _, i := range idx {
		g.counts[g.y[i]]++
	}
	if depth >= g.p.maxDepth || len(idx) < 2*g.p.minLeaf || isPure(g.counts) {
		return g.leaf(len(idx))
	}
	feat, thr, ok := g.bestSplit(idx)
	if !ok {
		return g.leaf(len(idx))
	}
	// Partition idx in place, both sides in their original order: the
	// left rows close up at the front, the right rows wait in spill.
	nl, nr := 0, 0
	for _, i := range idx {
		if g.x[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			g.spill[nr] = i
			nr++
		}
	}
	copy(idx[nl:], g.spill[:nr])
	if nl < g.p.minLeaf || nr < g.p.minLeaf {
		return g.leaf(len(idx))
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      g.growNode(idx[:nl], depth+1),
		right:     g.growNode(idx[nl:], depth+1),
	}
}

// leaf makes a leaf of the node whose class counts are in g.counts.
func (g *grower) leaf(total int) *treeNode {
	return &treeNode{feature: -1, counts: append([]int(nil), g.counts...), total: total}
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
// the split with the lowest weighted Gini impurity over the node's rows
// idx, whose class counts are in g.counts.
//
// A candidate threshold lies midway between two adjacent distinct values
// of a column, and its impurity depends only on the class counts either
// side of it. So a column is swept from its histogram — the node's
// distinct values with per-class counts, in ascending order — and the
// rows themselves are sorted only when a column holds more than
// maxDistinct values. Both sweeps hand weightedGini the operands a sweep
// over the sorted rows would, in the same order, and keep the first
// strictly lowest: the split is the same down to the tie.
func (g *grower) bestSplit(idx []int) (feat int, thr float64, ok bool) {
	// rand.Perm's algorithm, draw for draw, into a reused slice.
	order := g.order
	for i := range order {
		j := g.rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	tried := 0
	bestGini := math.Inf(1)
	for _, f := range order {
		if tried >= g.p.maxFeatures && ok {
			break
		}
		tried++
		var fg, fthr float64
		var found bool
		if nd, fits := g.histogram(idx, f); !fits {
			fg, fthr, found = g.sweepSorted(idx, f)
		} else if nd > 1 { // else constant in this node
			fg, fthr, found = g.sweepHistogram(nd, len(idx))
		}
		if found && fg < bestGini {
			bestGini, feat, thr, ok = fg, f, fthr, true
		}
	}
	return feat, thr, ok
}

// histogram collects column f's distinct values over the rows idx into
// g.vals, with their per-class counts in g.hist, and returns how many
// there are; fits is false when there are more than maxDistinct. Values
// are matched with ==, which validate's refusal of NaN makes sound, and
// which folds -0 into +0 exactly as the sweep's own comparisons do.
func (g *grower) histogram(idx []int, f int) (nd int, fits bool) {
	x, y, hist, nc := g.x, g.y, g.hist, g.p.nClasses
rows:
	for _, i := range idx {
		v := x[i][f]
		for k, u := range g.vals[:nd] {
			if u == v {
				hist[k*nc+y[i]]++
				continue rows
			}
		}
		if nd == maxDistinct {
			return nd, false
		}
		g.vals[nd] = v
		clear(hist[nd*nc : (nd+1)*nc])
		hist[nd*nc+y[i]]++
		nd++
	}
	return nd, true
}

// sweepHistogram returns the lowest-impurity threshold among the nd
// distinct values histogram collected from n rows: the first one, in
// ascending order, when several tie.
func (g *grower) sweepHistogram(nd, n int) (best, thr float64, ok bool) {
	rank := g.rank[:nd]
	for k := range rank {
		j := k
		for ; j > 0 && g.vals[rank[j-1]] > g.vals[k]; j-- {
			rank[j] = rank[j-1]
		}
		rank[j] = k
	}
	nc := g.p.nClasses
	clear(g.left)
	copy(g.right, g.counts)
	nLeft := 0
	best = math.Inf(1)
	for r, k := range rank[:nd-1] {
		for c, cnt := range g.hist[k*nc : (k+1)*nc] {
			g.left[c] += cnt
			g.right[c] -= cnt
			nLeft += cnt
		}
		if gi := weightedGini(g.left, nLeft, g.right, n-nLeft); gi < best {
			best, thr, ok = gi, (g.vals[k]+g.vals[rank[r+1]])/2, true
		}
	}
	return best, thr, ok
}

// sweepSorted is the sweep for a column with more than maxDistinct
// values in the node: the rows' (value, class) pairs sorted by value,
// thresholds tried between distinct consecutive values.
func (g *grower) sweepSorted(idx []int, f int) (best, thr float64, ok bool) {
	g.pairs = g.pairs[:0]
	for _, i := range idx {
		g.pairs = append(g.pairs, valueClass{g.x[i][f], g.y[i]})
	}
	slices.SortFunc(g.pairs, func(a, b valueClass) int { return cmp.Compare(a.v, b.v) })
	clear(g.left)
	copy(g.right, g.counts)
	best = math.Inf(1)
	for i, p := range g.pairs[:len(g.pairs)-1] {
		g.left[p.c]++
		g.right[p.c]--
		next := g.pairs[i+1].v
		if p.v == next {
			continue
		}
		if gi := weightedGini(g.left, i+1, g.right, len(g.pairs)-i-1); gi < best {
			best, thr, ok = gi, (p.v+next)/2, true
		}
	}
	return best, thr, ok
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
		// The split search matches and orders values with == and <.
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("rf: sample %d feature %d is %v, want a finite value", i, f, v)
			}
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
