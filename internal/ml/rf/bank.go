package rf

import (
	"fmt"
	"math/bits"
	"sort"
)

// Bank is a set of forests compiled to answer, in one pass over a vector x
// instead of a walk per tree, which of them AcceptSoft(x, class, thr) (the
// QuickScorer traversal, Lucchese et al., SIGIR 2015; DESIGN §12). A tree
// owns one bit per leaf, numbered left to right and all set at the start;
// each split is an op whose mask clears the leaves of its left subtree.
// Ops are sorted by (feature, threshold), so the splits whose test
// x[f] <= threshold is false are a prefix of f's run and the pass applies
// exactly their masks. Every leaf left of the walk's is below the left
// branch of a false split on the walk's path, and no false split has the
// walk's leaf on its left: the lowest bit standing is leafIndex's leaf.
//
// Only the trees AcceptSoft walks whatever x is are compiled (alwaysWalked:
// 13 of 25 at threshold 0.5); the rest are walked if a decision gets that
// far. Values, order, bounds and final comparison are AcceptSoft's, so the
// decisions are bit-identical. A Bank is immutable and shares its forests.
type Bank struct {
	class   int32
	thr     float64
	forests []bankForest
	vals    []float64 // the compiled trees' leaf values, in leaf order
	ops     []bankOp  // sorted by (feat, thr)
	featOff []int32   // ops[featOff[f]:featOff[f+1]] test feature f
	init    []uint64  // the bit-vector before the pass: every leaf set
}

type bankForest struct {
	trees          []*Tree
	compiled       []bankTree // trees[:len(compiled)], compiled
	accept, reject float64
}

// bankTree locates a compiled tree: its bits start at word `word` (a tree
// of more than 64 leaves runs on into the next), its values at vals[val].
type bankTree struct{ word, val int32 }

type bankOp struct {
	thr        float64
	mask       uint64
	word, feat int32
}

// CompileBank compiles forests for vectors of the given width. It fails
// if a forest lacks the class or splits on a feature outside the width.
func CompileBank(forests []*Forest, class int, thr float64, width int) (*Bank, error) {
	b := &Bank{class: int32(class), thr: thr, forests: make([]bankForest, len(forests))}
	for i, f := range forests {
		if class < 0 || class >= f.nClasses {
			return nil, fmt.Errorf("rf: compile: forest %d has no class %d", i, class)
		}
		if err := f.ValidateFeatures(width); err != nil {
			return nil, fmt.Errorf("rf: compile: forest %d: %w", i, err)
		}
		bf := bankForest{trees: f.trees}
		bf.accept, bf.reject = softBounds(len(f.trees), thr)
		for _, t := range f.trees[:alwaysWalked(len(f.trees), bf.accept, bf.reject)] {
			bf.compiled = append(bf.compiled, b.compileTree(t))
		}
		b.forests[i] = bf
	}
	sort.Slice(b.ops, func(i, j int) bool {
		if b.ops[i].feat != b.ops[j].feat {
			return b.ops[i].feat < b.ops[j].feat
		}
		return b.ops[i].thr < b.ops[j].thr
	})
	b.featOff = make([]int32, width+1)
	for _, op := range b.ops {
		b.featOff[op.feat+1]++
	}
	for f := 0; f < width; f++ {
		b.featOff[f+1] += b.featOff[f]
	}
	return b, nil
}

// alwaysWalked counts the leading trees AcceptSoft walks for every input:
// i+1 values sum into [0, i+1], so no bound fires after tree i while
// i+1 < accept and nTrees-1-i >= reject.
func alwaysWalked(nTrees int, accept, reject float64) int {
	for i := 0; i < nTrees; i++ {
		if float64(i+1) >= accept || float64(nTrees-1-i) < reject {
			return i + 1
		}
	}
	return nTrees
}

// compileTree appends t's bits, leaf values and ops. Leaves are numbered
// by following left/right as leafIndex does — not by index range, which
// needs a preorder array and Load does not demand one. start[i] counts the
// leaves left of node i's subtree: a split clears [start[i], start[right]).
func (b *Bank) compileTree(t *Tree) bankTree {
	word, val := len(b.init), len(b.vals)
	start := make([]int, len(t.nodes))
	stack := []int32{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[i]
		start[i] = len(b.vals) - val
		if n.feature < 0 {
			// leafProbs is zero where total == 0: the leaf AcceptSoft skips.
			b.vals = append(b.vals, t.leafProbs[n.countsOff+b.class])
			continue
		}
		stack = append(stack, n.right, n.left)
	}
	leaves := len(b.vals) - val
	for l := 0; l < leaves; l += 64 {
		b.init = append(b.init, ^uint64(0)>>max(0, 64-(leaves-l)))
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.feature < 0 {
			continue
		}
		// One op per word the left subtree's leaves touch.
		for lo, hi := start[i], start[n.right]; lo < hi; lo = (lo/64 + 1) * 64 {
			end := min(hi, (lo/64+1)*64)
			mask := ^(^uint64(0) >> (64 - (end - lo)) << (lo % 64))
			w := word + lo/64
			if n.threshold != n.threshold {
				// x <= NaN is false for every x: the mask always applies.
				b.init[w] &= mask
				continue
			}
			b.ops = append(b.ops, bankOp{thr: n.threshold, mask: mask, word: int32(w), feat: n.feature})
		}
	}
	return bankTree{word: int32(word), val: int32(val)}
}

// Scan sets bit i of accepted for every forest i that accepts x, exactly
// as forests[i].AcceptSoft(x, class, thr) decides. It returns the
// bit-vector scratch (words, grown if need be): a caller that passes it
// back scans without allocating. x must be as wide as the compiled width.
func (b *Bank) Scan(x []float64, words, accepted []uint64) []uint64 {
	words = append(words[:0], b.init...)
	for f, v := range x[:len(b.featOff)-1] {
		for _, op := range b.ops[b.featOff[f]:b.featOff[f+1]] {
			// Spelled as leafIndex spells it, so a NaN fails every test.
			if v <= op.thr {
				break
			}
			words[op.word] &= op.mask
		}
	}
	for i := range b.forests {
		if b.accepts(&b.forests[i], x, words) {
			accepted[i/64] |= 1 << (i % 64)
		}
	}
	return words
}

// accepts is AcceptSoft, the compiled trees' leaves read off the bit-vector.
func (b *Bank) accepts(bf *bankForest, x []float64, words []uint64) bool {
	partial := 0.0
	for i, t := range bf.trees {
		if i < len(bf.compiled) {
			ct := bf.compiled[i]
			w := ct.word
			for words[w] == 0 {
				w++
			}
			partial += b.vals[int(ct.val)+int(w-ct.word)*64+bits.TrailingZeros64(words[w])]
		} else if n := &t.nodes[t.leafIndex(x)]; n.total != 0 {
			partial += t.leafProbs[n.countsOff+b.class]
		}
		if partial >= bf.accept {
			return true
		}
		if partial+float64(len(bf.trees)-1-i) < bf.reject {
			return false
		}
	}
	return partial/float64(len(bf.trees)) >= b.thr
}
