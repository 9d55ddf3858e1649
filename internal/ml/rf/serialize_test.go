package rf

import (
	"bytes"
	"strings"
	"testing"
)

func TestForestSaveLoad(t *testing.T) {
	x, y := twoBlobs(80, 5, 1)
	f, err := Train(x, y, Config{Trees: 12, Seed: 9})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	g, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(g.trees) != len(f.trees) || g.nClasses != f.nClasses {
		t.Fatalf("shape: %d/%d vs %d/%d", len(g.trees), g.nClasses, len(f.trees), f.nClasses)
	}
	// Predictions must be bit-identical.
	for i := range x {
		pf, pg := walkSoftProba(f, x[i]), walkSoftProba(g, x[i])
		if pf[0] != pg[0] || pf[1] != pg[1] {
			t.Fatalf("sample %d: proba %v vs %v", i, pf, pg)
		}
	}
}

func TestForestLoadErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"garbage", "{not json"},
		{"bad-version", `{"version":99,"nClasses":2,"trees":[{"nodes":[{"f":-1,"c":[1,1],"n":2,"l":-1,"r":-1}]}]}`},
		{"no-trees", `{"version":1,"nClasses":2,"trees":[]}`},
		{"bad-classes", `{"version":1,"nClasses":1,"trees":[{"nodes":[]}]}`},
		{"empty-nodes", `{"version":1,"nClasses":2,"trees":[{"nodes":[]}]}`},
		{"bad-leaf-counts", `{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":-1,"c":[1],"n":1,"l":-1,"r":-1}]}]}`},
		{"child-before-parent", `{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":0,"t":1,"l":0,"r":0}]}]}`},
		{"child-out-of-range", `{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":0,"t":1,"l":5,"r":6}]}]}`},
		{"negative-count", `{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":-1,"c":[-1,3],"n":2,"l":-1,"r":-1}]}]}`},
		{"total-mismatch", `{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":-1,"c":[1,1],"n":5,"l":-1,"r":-1}]}]}`},
		{"same-child-twice", `{"version":1,"nClasses":2,"trees":[{"nodes":[` +
			`{"f":0,"t":1,"l":1,"r":1},{"f":-1,"c":[1,1],"n":2,"l":-1,"r":-1}]}]}`},
		{"shared-child-dag", `{"version":1,"nClasses":2,"trees":[{"nodes":[` +
			`{"f":0,"t":1,"l":1,"r":2},{"f":0,"t":2,"l":2,"r":3},{"f":-1,"c":[1,1],"n":2,"l":-1,"r":-1},{"f":-1,"c":[2,0],"n":2,"l":-1,"r":-1}]}]}`},
		{"orphan-node", `{"version":1,"nClasses":2,"trees":[{"nodes":[` +
			`{"f":-1,"c":[1,1],"n":2,"l":-1,"r":-1},{"f":-1,"c":[3,0],"n":3,"l":-1,"r":-1}]}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.give)); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestValidateFeatures pins the remaining hole Load alone cannot
// close: the wire format does not record the feature-vector width, so
// a split on an out-of-width feature loads fine but would panic on the
// first walk. ValidateFeatures bounds it.
func TestValidateFeatures(t *testing.T) {
	const give = `{"version":1,"nClasses":2,"trees":[{"nodes":[` +
		`{"f":7,"t":1,"l":1,"r":2},{"f":-1,"c":[1,0],"n":1,"l":-1,"r":-1},{"f":-1,"c":[0,1],"n":1,"l":-1,"r":-1}]}]}`
	f, err := Load(strings.NewReader(give))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := f.ValidateFeatures(8); err != nil {
		t.Errorf("feature 7 must be valid for width 8: %v", err)
	}
	if err := f.ValidateFeatures(7); err == nil {
		t.Error("feature 7 must be rejected for width 7")
	}
}
