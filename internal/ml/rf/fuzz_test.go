package rf

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzLoad feeds arbitrary bytes through the forest deserializer. The
// model file is the one input the classifier bank takes from disk, so
// Load must be total: reject or accept, never panic — and anything it
// accepts within the probe width must do what production does with a
// loaded file: compile into a Bank, at every class, whose scan decides as
// AcceptSoft does.
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
	// The word-packing shapes of bank_test.go: a tree that fills a word, one
	// that does not fit beside the one before, a wide tree between packed
	// ones, 0/1 votes with an empty leaf, a fractional exit.
	for _, trees := range [][]string{
		{combTree(0, combLeaves(64)), combTree(1, "10"), combTree(2, "011")},
		{combTree(0, combLeaves(63)), combTree(1, "01")},
		{combTree(5, "10"), combTree(0, combLeaves(70)), combTree(1, "011"), combTree(2, "1"), combTree(3, "1")},
		{combTree(0, "01"), combTree(1, "10"), combTree(0, "e1"), combTree(0, "0h"), combTree(2, "11")},
	} {
		f.Add([]byte(`{"version":1,"nClasses":2,"trees":[` + strings.Join(trees, ",") + `]}`))
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
		probes := [][]float64{make([]float64, width), make([]float64, width)}
		for i := range probes[1] {
			probes[1][i] = math.MaxFloat64
		}
		for class := 0; class < forest.nClasses; class++ {
			for _, thr := range []float64{0.5, 0.9} {
				bank, err := CompileBank(forests, class, thr, width)
				if err != nil {
					t.Fatalf("CompileBank(class %d) on an accepted model: %v", class, err)
				}
				for _, probe := range probes {
					checkBankScan(t, forests, bank, probe, class, thr, nil)
				}
			}
		}
	})
}
