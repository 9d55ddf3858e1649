package rf

import (
	"fmt"
	"math"
	"math/rand"
)

// Config controls Random Forest training. The zero value selects the
// defaults via normalize.
type Config struct {
	// Trees is the number of trees in the ensemble (default 25).
	Trees int
	// MaxDepth bounds tree depth (default 24).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features considered per split
	// (default round(sqrt(feature count))).
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) normalize(nFeatures int) Config {
	if c.Trees <= 0 {
		c.Trees = 25
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 24
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MaxFeatures <= 0 || c.MaxFeatures > nFeatures {
		c.MaxFeatures = int(math.Round(math.Sqrt(float64(nFeatures))))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	return c
}

// Forest is a trained Random Forest classifier.
type Forest struct {
	trees    []*Tree
	nClasses int
}

// Train fits a Random Forest on x (samples × features) with integer
// class labels y in [0, nClasses).
func Train(x [][]float64, y []int, cfg Config) (*Forest, error) {
	nClasses, err := validate(x, y)
	if err != nil {
		return nil, err
	}
	if nClasses < 2 {
		return nil, fmt.Errorf("rf: need at least 2 classes, got %d", nClasses)
	}
	cfg = cfg.normalize(len(x[0]))
	p := treeParams{
		maxDepth:    cfg.MaxDepth,
		minLeaf:     cfg.MinLeaf,
		maxFeatures: cfg.MaxFeatures,
		nClasses:    nClasses,
	}
	// Each tree draws its bootstrap and splits from its own RNG, seeded by
	// the next draw of the top-level stream.
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{trees: make([]*Tree, cfg.Trees), nClasses: nClasses}
	g := newGrower(x, y, p)
	n := len(x)
	for t := range f.trees {
		trng := rand.New(rand.NewSource(rng.Int63()))
		// Bootstrap sample with replacement.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = trng.Intn(n)
		}
		f.trees[t] = flatten(g.growTree(idx, trng), nClasses)
	}
	return f, nil
}

// AcceptSoft reports whether the forest's soft probability of class —
// each tree's leaf class fraction, averaged over the trees (Weka-style
// probability estimation) — is at least thr, deciding early, without
// walking the remaining trees, as soon as the accumulated mass provably
// pins the outcome. Each tree contributes a value in [0, 1], so after t
// trees the final sum lies in [partial, partial+(T-t)] up to accumulated
// rounding of order T²·2⁻⁵³; the slack term dominates that comfortably
// for any realistic ensemble size. When neither bound triggers, the exact
// final comparison runs, so the decision is always the exact average's.
// Production asks the question through a compiled Bank; AcceptSoft is the
// reference the scan is tested to.
func (f *Forest) AcceptSoft(x []float64, class int, thr float64) bool {
	acceptBound, rejectBound := softBounds(len(f.trees), thr)
	partial := 0.0
	for i, t := range f.trees {
		n := &t.nodes[t.leafIndex(x)]
		if n.total != 0 {
			partial += t.leafProbs[n.countsOff+int32(class)]
		}
		if partial >= acceptBound {
			return true
		}
		if partial+float64(len(f.trees)-1-i) < rejectBound {
			return false
		}
	}
	return partial/float64(len(f.trees)) >= thr
}

// softBounds returns AcceptSoft's early-exit bounds on the partial sum;
// one function, so the compiled scan (Bank) decides on the same values.
func softBounds(nTrees int, thr float64) (accept, reject float64) {
	nt := float64(nTrees)
	slack := 1e-9 * nt
	return thr*nt + slack, thr*nt - slack
}
