package rf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Wire format for trained forests: a flat node array per tree, with
// child pointers as indices. Index -1 marks "no child". The format is
// versioned so future changes stay loadable.
//
// The wire layout is the same preorder flat array the runtime uses
// (tree.go), so Save is a field-by-field transcription and Load
// validates the array in place — no pointer tree is ever rebuilt. The
// emitted JSON is byte-identical to what the pointer-node
// implementation wrote (golden_test.go pins this), keeping models
// saved by earlier versions loadable and their store manifests stable.

const wireVersion = 1

type wireForest struct {
	Version  int        `json:"version"`
	NClasses int        `json:"nClasses"`
	Trees    []wireTree `json:"trees"`
}

type wireTree struct {
	Nodes []wireNode `json:"nodes"`
}

type wireNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
	Counts    []int   `json:"c,omitempty"`
	Total     int     `json:"n,omitempty"`
}

// Save serializes the trained forest to w as versioned JSON.
func (f *Forest) Save(w io.Writer) error {
	wf := wireForest{
		Version:  wireVersion,
		NClasses: f.nClasses,
		Trees:    make([]wireTree, len(f.trees)),
	}
	for i, t := range f.trees {
		nodes := make([]wireNode, len(t.nodes))
		for j := range t.nodes {
			n := &t.nodes[j]
			if n.feature < 0 {
				counts := make([]int, t.nClasses)
				for c := range counts {
					counts[c] = int(t.leafCounts[n.countsOff+int32(c)])
				}
				nodes[j] = wireNode{Feature: -1, Left: -1, Right: -1, Counts: counts, Total: int(n.total)}
				continue
			}
			nodes[j] = wireNode{
				Feature:   int(n.feature),
				Threshold: n.threshold,
				Left:      int(n.left),
				Right:     int(n.right),
			}
		}
		wf.Trees[i] = wireTree{Nodes: nodes}
	}
	if err := json.NewEncoder(w).Encode(wf); err != nil {
		return fmt.Errorf("rf: save: %w", err)
	}
	return nil
}

// Load deserializes a forest previously written by Save.
func Load(r io.Reader) (*Forest, error) {
	var wf wireForest
	if err := json.NewDecoder(r).Decode(&wf); err != nil {
		return nil, fmt.Errorf("rf: load: %w", err)
	}
	if wf.Version != wireVersion {
		return nil, fmt.Errorf("rf: load: unsupported version %d", wf.Version)
	}
	if wf.NClasses < 2 {
		return nil, fmt.Errorf("rf: load: invalid class count %d", wf.NClasses)
	}
	if len(wf.Trees) == 0 {
		return nil, fmt.Errorf("rf: load: forest has no trees")
	}
	f := &Forest{nClasses: wf.NClasses, trees: make([]*Tree, len(wf.Trees))}
	for i, wt := range wf.Trees {
		t, err := buildTree(wt.Nodes, wf.NClasses)
		if err != nil {
			return nil, fmt.Errorf("rf: load: tree %d: %w", i, err)
		}
		f.trees[i] = t
	}
	return f, nil
}

// buildTree validates the flat wire array and converts it into the
// runtime layout. The input is untrusted (a model file from disk), so
// every structural property the index walk relies on is checked: child
// indices in bounds and strictly forward (no self references, no
// cycles), every node with exactly one parent (no DAG sharing) and
// reachable from the root (no orphans), and leaf counts non-negative
// with a consistent total. That is less than preorder, which is what
// Save writes: a level-by-level array passes, and walks correctly,
// because everything downstream follows the indices. Runtime and wire
// share the layout, so validation is a pair of linear passes — no
// recursive rebuild, so a hostile deep tree cannot blow the stack.
func buildTree(nodes []wireNode, nClasses int) (*Tree, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("empty node array")
	}
	if len(nodes) > math.MaxInt32 {
		return nil, fmt.Errorf("node array too large (%d nodes)", len(nodes))
	}
	t := &Tree{nClasses: nClasses, nodes: make([]flatNode, len(nodes))}
	for i, wn := range nodes {
		if wn.Feature < 0 {
			if len(wn.Counts) != nClasses {
				return nil, fmt.Errorf("node %d: leaf has %d class counts, want %d", i, len(wn.Counts), nClasses)
			}
			sum := 0
			for c, n := range wn.Counts {
				if n < 0 {
					return nil, fmt.Errorf("node %d: negative count %d for class %d", i, n, c)
				}
				sum += n
			}
			if wn.Total != sum {
				return nil, fmt.Errorf("node %d: total %d, class counts sum to %d", i, wn.Total, sum)
			}
			if wn.Total > math.MaxInt32 {
				return nil, fmt.Errorf("node %d: total %d overflows", i, wn.Total)
			}
			t.nodes[i] = flatNode{
				feature:   -1,
				left:      -1,
				right:     -1,
				countsOff: int32(len(t.leafCounts)),
				total:     int32(wn.Total),
			}
			for _, n := range wn.Counts {
				t.leafCounts = append(t.leafCounts, int32(n))
			}
			continue
		}
		if wn.Feature > math.MaxInt32 {
			return nil, fmt.Errorf("node %d: feature index %d overflows", i, wn.Feature)
		}
		t.nodes[i] = flatNode{
			feature:   int32(wn.Feature),
			threshold: wn.Threshold,
			left:      int32(wn.Left),
			right:     int32(wn.Right),
		}
	}
	parents := make([]int, len(nodes))
	for i, wn := range nodes {
		if wn.Feature < 0 {
			continue
		}
		// Children strictly after their parent: this rules out self
		// references, backward references, and cycles.
		if wn.Left <= i || wn.Left >= len(nodes) || wn.Right <= i || wn.Right >= len(nodes) || wn.Left == wn.Right {
			return nil, fmt.Errorf("node %d: invalid child indices (%d, %d)", i, wn.Left, wn.Right)
		}
		parents[wn.Left]++
		parents[wn.Right]++
	}
	// A well-formed tree references every node except the root exactly
	// once: a second parent would alias subtrees, an unreferenced node
	// would be dead weight smuggled past validation.
	if parents[0] != 0 {
		return nil, fmt.Errorf("root referenced as a child")
	}
	for i := 1; i < len(nodes); i++ {
		if parents[i] != 1 {
			return nil, fmt.Errorf("node %d has %d parents, want 1", i, parents[i])
		}
	}
	t.buildLeafProbs()
	return t, nil
}

// ValidateFeatures checks that every split in the forest tests a
// feature index in [0, n): a loaded model whose splits reference
// features wider than the caller's vectors would make AcceptSoft or a
// Bank scan panic on the first classification. Callers that know their
// feature width must invoke this after Load.
func (f *Forest) ValidateFeatures(n int) error {
	for ti, t := range f.trees {
		for i := range t.nodes {
			if fe := t.nodes[i].feature; fe >= 0 && int(fe) >= n {
				return fmt.Errorf("rf: tree %d: split on feature %d, vectors have %d", ti, fe, n)
			}
		}
	}
	return nil
}
