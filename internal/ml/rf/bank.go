package rf

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Bank is a set of forests compiled to answer, in one pass over a vector x
// instead of a walk per tree, which of them AcceptSoft(x, class, thr) (the
// QuickScorer traversal, Lucchese et al., SIGIR 2015; DESIGN §12). A tree
// owns one bit per leaf, numbered left to right and all set at the start;
// each split is an op whose mask clears the leaves of its left subtree.
// The ops of one feature are sorted by threshold, so the splits whose test
// x[f] <= threshold is false are a prefix of f's run and the pass applies
// exactly their masks. Every leaf left of the walk's is below the left
// branch of a false split on the walk's path, and no false split has the
// walk's leaf on its left: the lowest bit standing is leafIndex's leaf.
//
// A forest's trees share 64-bit words: a tree of up to 64 leaves never
// straddles one, and no word holds two forests, so w &^ (w - seg) keeps
// exactly each tree's exit bit (seg marks where each tree starts). While
// every exit leaf's value is 0 or 1, the forest's partial sum is one
// popcount; a fractional leaf, or a tree wider than a word, sums leaf by
// leaf as AcceptSoft does.
//
// Only the trees AcceptSoft walks whatever x is are compiled (alwaysWalked:
// 13 of 25 at threshold 0.5); the rest are walked if a decision gets that
// far. Values, order, bounds and final comparison are AcceptSoft's, so the
// decisions are bit-identical. A Bank is immutable and shares its forests.
type Bank struct {
	class   int32
	thr     float64
	forests []bankForest
	vals    []float64   // the compiled trees' leaf values, each tree's in leaf order
	runs    []bankRun   // the features that have ops, ascending
	ops     []bankOp    // run by run, each by threshold
	init    []uint64    // the bit-vector before the pass: every leaf set
	masks   []wordMasks // per word of init
}

type bankForest struct {
	trees          []*Tree
	compiled       []bankTree // trees[:len(compiled)], compiled
	accept, reject float64
	// votes are the words the compiled trees' votes are counted in; empty
	// when there is no compiled tree or one is wider than a word.
	votes struct{ lo, hi int32 }
}

// bankTree locates a compiled tree: its bits start at bit shift of word
// `word` (a tree of more than 64 leaves starts a word and runs on into
// the next), its values at vals[val].
type bankTree struct{ word, shift, val int32 }

// bankRun is one feature's ops: ops[op:end].
type bankRun struct{ feat, op, end int32 }

type bankOp struct {
	thr  float64
	mask uint64
	word int32
}

// wordMasks describes the packed trees of one word: seg has each tree's
// first bit, one the leaves whose value is exactly 1, frac those whose
// value is neither 0 nor 1.
type wordMasks struct{ seg, one, frac uint64 }

// featOp is an op before CompileBank groups the ops into runs.
type featOp struct {
	feat int32
	bankOp
}

// CompileBank compiles forests for vectors of the given width. It fails
// if a forest lacks the class or splits on a feature outside the width.
func CompileBank(forests []*Forest, class int, thr float64, width int) (*Bank, error) {
	b := &Bank{class: int32(class), thr: thr, forests: make([]bankForest, len(forests))}
	var ops []featOp
	for i, f := range forests {
		if class < 0 || class >= f.nClasses {
			return nil, fmt.Errorf("rf: compile: forest %d has no class %d", i, class)
		}
		if err := f.ValidateFeatures(width); err != nil {
			return nil, fmt.Errorf("rf: compile: forest %d: %w", i, err)
		}
		bf := bankForest{trees: f.trees}
		bf.accept, bf.reject = softBounds(len(f.trees), thr)
		lo, packed := len(b.init), true
		bit := 64 // the next bit free in the last word: none, it belongs to another forest
		for _, t := range f.trees[:alwaysWalked(len(f.trees), bf.accept, bf.reject)] {
			var ct bankTree
			ct, bit, ops = b.compileTree(t, bit, ops)
			packed = packed && bit <= 64
			bf.compiled = append(bf.compiled, ct)
		}
		if packed {
			bf.votes.lo, bf.votes.hi = int32(lo), int32(len(b.init))
		}
		b.forests[i] = bf
	}
	slices.SortFunc(ops, func(a, c featOp) int {
		if a.feat != c.feat {
			return cmp.Compare(a.feat, c.feat)
		}
		if a.thr != c.thr {
			return cmp.Compare(a.thr, c.thr)
		}
		return cmp.Compare(a.word, c.word)
	})
	// One run per feature, ops of equal (threshold, word) merged: they
	// apply together or not at all.
	for i := 0; i < len(ops); {
		r := bankRun{feat: ops[i].feat, op: int32(len(b.ops))}
		for ; i < len(ops) && ops[i].feat == r.feat; i++ {
			if last := len(b.ops) - 1; last >= int(r.op) && b.ops[last].thr == ops[i].thr && b.ops[last].word == ops[i].word {
				b.ops[last].mask &= ops[i].mask
			} else {
				b.ops = append(b.ops, ops[i].bankOp)
			}
		}
		r.end = int32(len(b.ops))
		b.runs = append(b.runs, r)
	}
	b.ops = slices.Clone(b.ops) // without append's spare room: the bank lives as long as its identifier
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

// compileTree appends t's bits, leaf values and ops, packing t into the
// last word from bit `bit` on if it fits there; it returns where t lies
// and the next free bit, above 64 after a tree wider than a word. Leaves
// are numbered by following left/right as leafIndex does — not by index
// range, which needs a preorder array and Load does not demand one.
// start[i] counts the leaves left of node i's subtree: a split clears
// [start[i], start[right]).
func (b *Bank) compileTree(t *Tree, bit int, ops []featOp) (bankTree, int, []featOp) {
	val := len(b.vals)
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
	if bit+leaves > 64 {
		for l := 0; l < leaves; l += 64 {
			b.init = append(b.init, 0)
			b.masks = append(b.masks, wordMasks{})
		}
		bit = 0
	}
	word, shift := len(b.init)-(leaves+63)/64, bit
	for l := 0; l < leaves; l += 64 {
		b.init[word+l/64] |= ^uint64(0) >> max(0, 64-(leaves-l)) << shift
	}
	if leaves <= 64 {
		m := &b.masks[word]
		m.seg |= 1 << shift
		for l, v := range b.vals[val:] {
			if v == 1 {
				m.one |= 1 << (shift + l)
			} else if v != 0 {
				m.frac |= 1 << (shift + l)
			}
		}
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.feature < 0 {
			continue
		}
		// One op per word the left subtree's leaves touch.
		for lo, hi := shift+start[i], shift+start[n.right]; lo < hi; lo = (lo/64 + 1) * 64 {
			end := min(hi, (lo/64+1)*64)
			mask := ^(^uint64(0) >> (64 - (end - lo)) << (lo % 64))
			w := word + lo/64
			if n.threshold != n.threshold {
				// x <= NaN is false for every x: the mask always applies.
				b.init[w] &= mask
				continue
			}
			ops = append(ops, featOp{n.feature, bankOp{thr: n.threshold, mask: mask, word: int32(w)}})
		}
	}
	return bankTree{word: int32(word), shift: int32(shift), val: int32(val)}, shift + leaves, ops
}

// Scan sets bit i of accepted for every forest i that accepts x, exactly
// as forests[i].AcceptSoft(x, class, thr) decides. It returns the
// bit-vector scratch (words, grown if need be): a caller that passes it
// back scans without allocating. x must be as wide as the compiled width.
func (b *Bank) Scan(x []float64, words, accepted []uint64) []uint64 {
	words = append(words[:0], b.init...)
	for _, r := range b.runs {
		v := x[r.feat]
		for _, op := range b.ops[r.op:r.end] {
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
	partial, i := 0.0, 0
	if n, ok := b.countVotes(bf, words); ok {
		// The compiled trees' sum, exact; no bound fires before the last
		// of them (alwaysWalked), so its checks are the first to make.
		partial, i = float64(n), len(bf.compiled)
		if partial >= bf.accept {
			return true
		}
		if partial+float64(len(bf.trees)-i) < bf.reject {
			return false
		}
	}
	for ; i < len(bf.trees); i++ {
		if i < len(bf.compiled) {
			ct := bf.compiled[i]
			w := ct.word
			for words[w] == 0 {
				w++
			}
			partial += b.vals[int(ct.val)+int(w-ct.word)*64+bits.TrailingZeros64(words[w]>>ct.shift)]
		} else {
			t := bf.trees[i]
			if n := &t.nodes[t.leafIndex(x)]; n.total != 0 {
				partial += t.leafProbs[n.countsOff+b.class]
			}
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

// countVotes counts the compiled trees' exit leaves of value 1, one word
// at a time: the borrow of w - seg stops at each tree's exit bit, inside
// the tree, so w &^ (w - seg) is the exit bits alone. ok is false when
// the forest has no vote words or an exit leaf holds a fraction; sums of
// 0s and 1s are exact in float64, so the count is the sequential sum.
func (b *Bank) countVotes(bf *bankForest, words []uint64) (n int, ok bool) {
	lo, hi := bf.votes.lo, bf.votes.hi
	masks := b.masks[lo:hi]
	for j, w := range words[lo:hi] {
		m := &masks[j]
		exits := w &^ (w - m.seg)
		if exits&m.frac != 0 {
			return 0, false
		}
		n += bits.OnesCount64(exits & m.one)
	}
	return n, lo < hi
}
