package rf

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// Golden-model differential test: testdata/golden_forest.json was
// written by the pre-flattening (pointer-node) implementation, and
// testdata/golden_forest_pred.json records that implementation's
// Predict / Proba / SoftProba outputs on a fixed probe set. Any change
// to the inference engine or the wire format must keep (a) the golden
// file loadable, (b) every prediction bit-identical — read through the
// test-local walkers (oracle_test.go) and, for the soft probability,
// decided on by AcceptSoft and a compiled Bank at every class — and
// (c) Save reproducing the golden bytes exactly, which is what keeps
// on-disk models from the model store loadable across the flat-layout
// rewrite.

var updateGolden = flag.Bool("update-golden", false, "regenerate rf golden model fixtures")

const (
	goldenForestFile = "testdata/golden_forest.json"
	goldenPredFile   = "testdata/golden_forest_pred.json"
	goldenProbes     = 32
)

type goldenPredictions struct {
	Predict   []int       `json:"predict"`
	Proba     [][]float64 `json:"proba"`
	SoftProba [][]float64 `json:"softProba"`
}

// goldenDataset builds the deterministic 3-class training set and probe
// set the golden model is fit on.
func goldenDataset() (x [][]float64, y []int, probes [][]float64) {
	rng := rand.New(rand.NewSource(424242))
	centers := [][]float64{{0, 0, 0, 0}, {4, 1, 0, 2}, {1, 5, 3, 0}}
	for c, center := range centers {
		for i := 0; i < 60; i++ {
			row := make([]float64, len(center))
			for d := range row {
				row[d] = center[d] + rng.NormFloat64()
			}
			x = append(x, row)
			y = append(y, c)
		}
	}
	for i := 0; i < goldenProbes; i++ {
		center := centers[i%len(centers)]
		row := make([]float64, len(center))
		for d := range row {
			row[d] = center[d] + 1.5*rng.NormFloat64()
		}
		probes = append(probes, row)
	}
	return x, y, probes
}

func goldenForest(t testing.TB) *Forest {
	t.Helper()
	x, y, _ := goldenDataset()
	f, err := Train(x, y, Config{Trees: 15, MaxDepth: 12, Seed: 99})
	if err != nil {
		t.Fatalf("train golden forest: %v", err)
	}
	return f
}

func TestGoldenForestRoundTrip(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	raw, err := os.ReadFile(goldenForestFile)
	if err != nil {
		t.Fatalf("read golden model (regenerate with -update-golden): %v", err)
	}
	f, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load golden model: %v", err)
	}

	predRaw, err := os.ReadFile(goldenPredFile)
	if err != nil {
		t.Fatalf("read golden predictions: %v", err)
	}
	var want goldenPredictions
	if err := json.Unmarshal(predRaw, &want); err != nil {
		t.Fatalf("decode golden predictions: %v", err)
	}

	_, _, probes := goldenDataset()
	if len(want.Predict) != len(probes) {
		t.Fatalf("golden fixture has %d predictions, want %d", len(want.Predict), len(probes))
	}
	forests := []*Forest{f}
	for i, probe := range probes {
		if got := walkPredict(f, probe); got != want.Predict[i] {
			t.Errorf("probe %d: Predict = %d, golden %d", i, got, want.Predict[i])
		}
		checkFloats(t, fmt.Sprintf("probe %d Proba", i), walkProba(f, probe), want.Proba[i])
		checkFloats(t, fmt.Sprintf("probe %d SoftProba", i), walkSoftProba(f, probe), want.SoftProba[i])
		// Accepted at the golden probability, rejected one ulp above it.
		for class, p := range want.SoftProba[i] {
			for _, thr := range []float64{p, math.Nextafter(p, 2)} {
				if got := f.AcceptSoft(probe, class, thr); got != (p >= thr) {
					t.Errorf("probe %d class %d thr %v: AcceptSoft = %v, golden probability %v", i, class, thr, got, p)
				}
				b, err := CompileBank(forests, class, thr, len(probe))
				if err != nil {
					t.Fatal(err)
				}
				checkBankScan(t, forests, b, probe, class, thr, nil)
			}
		}
	}

	// Save must reproduce the pre-flattening wire bytes exactly, so a
	// model bank written before the rewrite and one written after are
	// indistinguishable to the PR 5 model store (SHA-256 manifests
	// included).
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatalf("Save reloaded golden model: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("Save(Load(golden)) bytes differ from golden file (%d vs %d bytes)", buf.Len(), len(raw))
	}

	// And a freshly trained forest with the same seed must still
	// serialize to the identical golden bytes: training, flattening and
	// serialization all deterministic.
	var buf2 bytes.Buffer
	if err := goldenForest(t).Save(&buf2); err != nil {
		t.Fatalf("Save retrained golden model: %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), raw) {
		t.Errorf("retrained golden model serializes differently from golden file")
	}
}

func checkFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, golden %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %v, golden %v (must be bit-identical)", what, i, got[i], want[i])
		}
	}
}

func writeGolden(t *testing.T) {
	t.Helper()
	f := goldenForest(t)
	_, _, probes := goldenDataset()
	var preds goldenPredictions
	for _, probe := range probes {
		preds.Predict = append(preds.Predict, walkPredict(f, probe))
		preds.Proba = append(preds.Proba, walkProba(f, probe))
		preds.SoftProba = append(preds.SoftProba, walkSoftProba(f, probe))
	}
	if err := os.MkdirAll(filepath.Dir(goldenForestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenForestFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	pj, err := json.MarshalIndent(preds, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPredFile, append(pj, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s and %s", goldenForestFile, goldenPredFile)
}
