package rf

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Workers bounds the goroutines growing trees concurrently:
	// 0 selects runtime.GOMAXPROCS(0), 1 forces sequential growth.
	// Each tree draws its bootstrap and splits from its own RNG whose
	// seed is pre-drawn from the Seed stream, so the trained forest is
	// identical at every worker count. Callers that already
	// parallelize at a coarser grain (e.g. core's per-type classifier
	// bank) should pass 1 to avoid nested fan-out.
	Workers int `json:"-"`
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
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("rf: Workers must be >= 0, got %d", cfg.Workers)
	}
	p := treeParams{
		maxDepth:    cfg.MaxDepth,
		minLeaf:     cfg.MinLeaf,
		maxFeatures: cfg.MaxFeatures,
		nClasses:    nClasses,
	}
	// Pre-draw one seed per tree from the top-level stream, then grow
	// each tree from its own RNG. Growth order then cannot influence
	// any tree's randomness, which is what lets the grow loop fan out
	// across workers without changing the trained forest.
	rng := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, cfg.Trees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	f := &Forest{trees: make([]*Tree, cfg.Trees), nClasses: nClasses}
	n := len(x)
	growOne := func(g *grower, t int) {
		trng := rand.New(rand.NewSource(seeds[t]))
		// Bootstrap sample with replacement.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = trng.Intn(n)
		}
		f.trees[t] = flatten(g.growTree(idx, trng), nClasses)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	if workers <= 1 {
		g := newGrower(x, y, p)
		for t := 0; t < cfg.Trees; t++ {
			growOne(g, t)
		}
		return f, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGrower(x, y, p)
			for {
				t := int(next.Add(1)) - 1
				if t >= cfg.Trees {
					return
				}
				growOne(g, t)
			}
		}()
	}
	wg.Wait()
	return f, nil
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// NumClasses returns the number of classes the forest was trained on.
func (f *Forest) NumClasses() int { return f.nClasses }

// maxStackClasses bounds the class count for which the alloc-free
// prediction paths can keep their vote scratch on the stack.
const maxStackClasses = 16

// Predict returns the majority-vote class for x without allocating.
// Ties resolve to the lowest class index, exactly as an argmax over
// Proba would: dividing equal vote counts by the same tree count yields
// equal quotients, so skipping the division cannot change the winner.
func (f *Forest) Predict(x []float64) int {
	var votesArr [maxStackClasses]int32
	votes := votesArr[:f.nClasses:f.nClasses]
	if f.nClasses > maxStackClasses {
		votes = make([]int32, f.nClasses)
	}
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	best, bestV := 0, int32(-1)
	for c, v := range votes {
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// Proba returns the per-class vote fractions for x.
func (f *Forest) Proba(x []float64) []float64 {
	return f.ProbaInto(x, make([]float64, f.nClasses))
}

// ProbaInto writes the per-class vote fractions for x into out,
// reusing its backing array when it has capacity, and returns the
// slice. The computation (votes accumulated in tree order, one
// division per class) is identical to Proba's, so results are
// bit-identical.
func (f *Forest) ProbaInto(x []float64, out []float64) []float64 {
	out = sizedFloats(out, f.nClasses)
	for _, t := range f.trees {
		out[t.Predict(x)]++
	}
	for c := range out {
		out[c] /= float64(len(f.trees))
	}
	return out
}

// PredictBatchInto classifies every row of xs into out, reusing its
// backing array when it has capacity, and returns the slice. With a
// pre-sized out it performs zero allocations.
func (f *Forest) PredictBatchInto(xs [][]float64, out []int) []int {
	if cap(out) < len(xs) {
		out = make([]int, len(xs))
	}
	out = out[:len(xs)]
	for i, x := range xs {
		out[i] = f.Predict(x)
	}
	return out
}

// SoftProba returns per-class probabilities by averaging each tree's
// leaf class distribution (Weka-style probability estimation) instead
// of counting hard votes. Boundary samples get smoother estimates,
// which matters for the one-vs-rest acceptance decision on sibling
// device-types.
func (f *Forest) SoftProba(x []float64) []float64 {
	return f.SoftProbaInto(x, make([]float64, f.nClasses))
}

// SoftProbaInto is SoftProba writing into out (reused when it has
// capacity). Each tree's contribution comes from the leafProbs cache,
// whose entries were divided from the exact operands the on-the-fly
// computation used, and trees are accumulated in the same order — so
// the averaged probabilities are bit-identical to SoftProba's since
// the pointer-tree implementation.
func (f *Forest) SoftProbaInto(x []float64, out []float64) []float64 {
	out = sizedFloats(out, f.nClasses)
	for _, t := range f.trees {
		n := &t.nodes[t.leafIndex(x)]
		if n.total == 0 {
			continue
		}
		probs := t.leafProbs[n.countsOff : int(n.countsOff)+t.nClasses]
		for c, p := range probs {
			out[c] += p
		}
	}
	nt := float64(len(f.trees))
	for c := range out {
		out[c] /= nt
	}
	return out
}

// AcceptSoft reports whether SoftProba(x)[class] >= thr, deciding
// early — without walking the remaining trees — as soon as the
// accumulated probability mass provably pins the outcome. Each tree
// contributes a value in [0, 1], so after t trees the final sum lies
// in [partial, partial+(T-t)] up to accumulated rounding of order
// T²·2⁻⁵³; the slack term dominates that comfortably for any
// realistic ensemble size. When neither bound triggers, the exact
// final comparison runs, so the decision is always bit-identical to
// SoftProba's.
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

// sizedFloats returns out resized to n (reusing capacity) and zeroed.
func sizedFloats(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = 0
	}
	return out
}
