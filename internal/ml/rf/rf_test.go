package rf

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// twoBlobs generates a linearly separable 2-class dataset.
func twoBlobs(n int, gap float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, 0, 2*n)
	y := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, 0)
		x = append(x, []float64{gap + rng.NormFloat64(), gap + rng.NormFloat64()})
		y = append(y, 1)
	}
	return x, y
}

func TestForestSeparableData(t *testing.T) {
	x, y := twoBlobs(100, 8, 1)
	f, err := Train(x, y, Config{Trees: 10, Seed: 42})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	errs := 0
	for i := range x {
		if walkPredict(f, x[i]) != y[i] {
			errs++
		}
	}
	if errs > 2 {
		t.Errorf("training errors = %d/%d on separable data", errs, len(x))
	}
}

func TestForestGeneralization(t *testing.T) {
	xTrain, yTrain := twoBlobs(100, 6, 1)
	xTest, yTest := twoBlobs(50, 6, 2)
	f, err := Train(xTrain, yTrain, Config{Trees: 25, Seed: 7})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	errs := 0
	for i := range xTest {
		if walkPredict(f, xTest[i]) != yTest[i] {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(xTest)); frac > 0.05 {
		t.Errorf("test error = %.2f, want <= 0.05", frac)
	}
}

func TestForestXOR(t *testing.T) {
	// XOR is not linearly separable; trees must still learn it exactly
	// when given the four corners many times.
	var x [][]float64
	var y []int
	for i := 0; i < 50; i++ {
		for _, c := range [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
			x = append(x, []float64{c[0], c[1]})
			y = append(y, int(c[2]))
		}
	}
	f, err := Train(x, y, Config{Trees: 15, MaxFeatures: 2, Seed: 3})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for _, c := range [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if got := walkPredict(f, []float64{c[0], c[1]}); got != int(c[2]) {
			t.Errorf("XOR(%v,%v) = %d, want %d", c[0], c[1], got, int(c[2]))
		}
	}
}

func TestForestMultiClass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []int
	for c := 0; c < 4; c++ {
		for i := 0; i < 60; i++ {
			x = append(x, []float64{float64(c)*5 + rng.NormFloat64(), rng.NormFloat64()})
			y = append(y, c)
		}
	}
	f, err := Train(x, y, Config{Trees: 20, Seed: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if f.nClasses != 4 {
		t.Errorf("nClasses = %d, want 4", f.nClasses)
	}
	errs := 0
	for i := range x {
		if walkPredict(f, x[i]) != y[i] {
			errs++
		}
	}
	if errs > 6 {
		t.Errorf("errors = %d/%d", errs, len(x))
	}
}

func TestProbaSumsToOne(t *testing.T) {
	x, y := twoBlobs(50, 4, 11)
	f, err := Train(x, y, Config{Trees: 7, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i := 0; i < 10; i++ {
		p := walkProba(f, x[i])
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	x, y := twoBlobs(80, 3, 17)
	f1, err := Train(x, y, Config{Trees: 10, Seed: 99})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	f2, err := Train(x, y, Config{Trees: 10, Seed: 99})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var b1, b2 bytes.Buffer
	if err := f1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := f2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same seed, different forests")
	}
}

func TestTrainErrors(t *testing.T) {
	tests := []struct {
		name string
		x    [][]float64
		y    []int
	}{
		{name: "empty", x: nil, y: nil},
		{name: "length-mismatch", x: [][]float64{{1}}, y: []int{0, 1}},
		{name: "ragged", x: [][]float64{{1, 2}, {1}}, y: []int{0, 1}},
		{name: "zero-width", x: [][]float64{{}, {}}, y: []int{0, 1}},
		{name: "negative-label", x: [][]float64{{1}, {2}}, y: []int{0, -1}},
		{name: "single-class", x: [][]float64{{1}, {2}}, y: []int{0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Train(tt.x, tt.y, Config{Trees: 2}); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestTrainRejectsNonFiniteFeatures: a NaN compares unequal to itself
// and unordered with everything, so no split search can place it.
func TestTrainRejectsNonFiniteFeatures(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := [][]float64{{0, 1}, {1, bad}, {2, 3}}
		y := []int{0, 1, 0}
		if _, err := Train(x, y, Config{Trees: 2}); err == nil || !strings.Contains(err.Error(), "sample 1 feature 1") {
			t.Errorf("Train with a %v feature: err = %v, want one naming sample 1 feature 1", bad, err)
		}
	}
}

func TestSingleTree(t *testing.T) {
	x, y := twoBlobs(60, 8, 23)
	tree := trainTree(x, y, 2, 10, 4)
	if depth(tree) < 1 {
		t.Error("tree did not split")
	}
	errs := 0
	for i := range x {
		if leafMajority(tree, x[i]) != y[i] {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("single-tree training errors = %d", errs)
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	// All samples in one class region: root must be a leaf for a pure y.
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{1, 1, 1, 1}
	if d := depth(trainTree(x, y, 2, 10, 0)); d != 0 {
		t.Errorf("pure dataset grew depth %d", d)
	}
}

func TestGini(t *testing.T) {
	tests := []struct {
		name   string
		counts []int
		n      int
		want   float64
	}{
		{"pure", []int{4, 0}, 4, 0},
		{"even", []int{2, 2}, 4, 0.5},
		{"empty", []int{0, 0}, 0, 0},
		{"three-way-even", []int{2, 2, 2}, 6, 2.0 / 3.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := gini(tt.counts, tt.n); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("gini(%v) = %v, want %v", tt.counts, got, tt.want)
			}
		})
	}
}

func TestQuickPredictInRange(t *testing.T) {
	x, y := twoBlobs(40, 5, 31)
	f, err := Train(x, y, Config{Trees: 5, Seed: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		c := walkPredict(f, []float64{a, b})
		return c == 0 || c == 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrainForest(b *testing.B) {
	x, y := twoBlobs(110, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, Config{Trees: 25, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSoftProbaSumsToOne(t *testing.T) {
	x, y := twoBlobs(50, 4, 3)
	f, err := Train(x, y, Config{Trees: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p := walkSoftProba(f, x[i])
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("soft probabilities sum to %v", sum)
		}
	}
}

func TestSoftProbaSmoother(t *testing.T) {
	// Soft voting must agree with hard voting on confident samples.
	x, y := twoBlobs(80, 8, 5)
	f, err := Train(x, y, Config{Trees: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		hard := walkProba(f, x[i])
		soft := walkSoftProba(f, x[i])
		hc, sc := 0, 0
		if hard[1] > hard[0] {
			hc = 1
		}
		if soft[1] > soft[0] {
			sc = 1
		}
		if hc != sc {
			t.Errorf("sample %d: hard class %d, soft class %d", i, hc, sc)
		}
	}
}

func TestFeatureImportance(t *testing.T) {
	// Feature 0 carries all the signal; feature 1 is pure noise.
	rng := rand.New(rand.NewSource(12))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		cls := i % 2
		x = append(x, []float64{float64(cls)*10 + rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, cls)
	}
	f, err := Train(x, y, Config{Trees: 20, MaxFeatures: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance(2)
	if len(imp) != 2 {
		t.Fatalf("importance len = %d", len(imp))
	}
	sum := imp[0] + imp[1]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importance sums to %v", sum)
	}
	if imp[0] < 0.9 {
		t.Errorf("signal feature importance = %v, want > 0.9 (noise: %v)", imp[0], imp[1])
	}
}

func TestFeatureImportanceNoSplits(t *testing.T) {
	// Constant features: trees are single leaves, importance all zero.
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	f, err := Train(x, y, Config{Trees: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance(2)
	if imp[0] != 0 || imp[1] != 0 {
		t.Errorf("importance = %v, want zeros", imp)
	}
}
