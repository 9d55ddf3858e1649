package rf

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLoad feeds arbitrary bytes through the forest deserializer. The
// model file is the one input the classifier bank takes from disk, so
// Load must be total: reject or accept, never panic — and anything it
// accepts must classify without panicking or producing non-finite
// probabilities, and must compile into a Bank that decides as it does.
func FuzzLoad(f *testing.F) {
	// Seed with a real trained forest so the fuzzer starts from valid
	// wire bytes and mutates inward.
	x, y := twoBlobs(40, 3, 1)
	trained, err := Train(x, y, Config{Trees: 4, Seed: 7})
	if err != nil {
		f.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		f.Fatalf("Save: %v", err)
	}
	f.Add(buf.Bytes())
	// And with every malformed shape the validator must catch.
	for _, s := range []string{
		`{not json`,
		`{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":0,"t":1,"l":0,"r":0}]}]}`,
		`{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":0,"t":1,"l":5,"r":6}]}]}`,
		`{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":-1,"c":[-1,3],"n":2,"l":-1,"r":-1}]}]}`,
		`{"version":1,"nClasses":2,"trees":[{"nodes":[` +
			`{"f":0,"t":1,"l":1,"r":2},{"f":0,"t":2,"l":2,"r":2},{"f":-1,"c":[1,1],"n":2,"l":-1,"r":-1}]}]}`,
		`{"version":1,"nClasses":2,"trees":[{"nodes":[` +
			`{"f":999,"t":1,"l":1,"r":2},{"f":-1,"c":[1,0],"n":1,"l":-1,"r":-1},{"f":-1,"c":[0,1],"n":1,"l":-1,"r":-1}]}]}`,
		// Accepted, and not preorder: the compiled scan must follow it.
		`{"version":1,"nClasses":2,"trees":[` + breadthFirstTree + `]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: the forest must hold Load's structural guarantees.
		const width = 64
		if err := forest.ValidateFeatures(width); err != nil {
			return // splits wider than our probe vectors; bound enforced
		}
		// ...and must compile, the compiled scan deciding as AcceptSoft.
		forests := []*Forest{forest}
		bank, err := CompileBank(forests, 1, 0.5, width)
		if err != nil {
			t.Fatalf("CompileBank on an accepted model: %v", err)
		}
		for _, probe := range [][]float64{
			make([]float64, width),
			func() []float64 {
				v := make([]float64, width)
				for i := range v {
					v[i] = math.MaxFloat64
				}
				return v
			}(),
		} {
			probs := forest.SoftProba(probe)
			if len(probs) != forest.NumClasses() {
				t.Fatalf("SoftProba returned %d classes, forest has %d", len(probs), forest.NumClasses())
			}
			sum := 0.0
			for _, p := range probs {
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
					t.Fatalf("non-finite or negative probability %v from accepted model", probs)
				}
				sum += p
			}
			if sum > 1+1e-9 {
				t.Fatalf("probabilities sum to %v", sum)
			}
			forest.Predict(probe)
			checkBankScan(t, forests, bank, probe, 1, 0.5, nil)
		}
	})
}
