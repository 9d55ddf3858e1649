package rf

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestTrainWorkersDeterministic: per-tree seeds are pre-drawn from the
// top-level stream, so the forest must serialize to identical bytes at
// every worker count.
func TestTrainWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 120)
	y := make([]int, 120)
	for i := range x {
		// Two continuous columns (sorted) and two of few values (swept from
		// the histogram), so each worker's grower reuses both scratches.
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), float64(rng.Intn(2)), float64(rng.Intn(5))}
		if x[i][0]+x[i][1]+x[i][2] > x[i][3]/2 {
			y[i] = 1
		}
	}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		f, err := Train(x, y, Config{Trees: 12, Seed: 21, Workers: workers})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("Workers=%d: forest differs from Workers=1", workers)
		}
	}
}

func TestTrainRejectsNegativeWorkers(t *testing.T) {
	x := [][]float64{{0}, {1}, {0}, {1}}
	y := []int{0, 1, 0, 1}
	if _, err := Train(x, y, Config{Trees: 3, Workers: -2}); err == nil {
		t.Error("negative Workers must be rejected")
	}
}
