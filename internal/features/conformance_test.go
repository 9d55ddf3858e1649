package features_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/pcap"
)

var update = flag.Bool("update", false, "regenerate the conformance corpus and golden file")

// conformanceSeed pins the corpus: regeneration with -update is
// byte-identical unless the device profiles themselves change.
const conformanceSeed = 99

// conformanceProfiles are the corpus captures, a cross-section of the
// catalog's connectivity mixes (cameras, hubs, plugs, sensors).
var conformanceProfiles = []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "D-LinkCam", "WeMoSwitch"}

type goldenFile struct {
	// Features is Table I's feature list in extraction order; a rename
	// or reorder is a conformance break even if values still match.
	Features [features.Count]string `json:"features"`
	// Captures maps pcap file name to one 23-wide row per frame.
	Captures map[string][][features.Count]float64 `json:"captures"`
}

func conformanceDir(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "conformance")
}

// TestFeatureVectorConformance replays the checked-in packet corpus
// through the extractor and compares every 23-feature row bit-for-bit
// against the golden file. Run with -update to regenerate both after an
// intentional feature change; the diff then documents exactly which
// Table-I columns moved.
func TestFeatureVectorConformance(t *testing.T) {
	dir := conformanceDir(t)
	goldenPath := filepath.Join(dir, "golden.json")

	if *update {
		regenerate(t, dir, goldenPath)
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var golden goldenFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if golden.Features != features.Names {
		t.Errorf("feature name table diverges from golden:\n got %v\nwant %v", features.Names, golden.Features)
	}
	if len(golden.Captures) == 0 {
		t.Fatal("golden file lists no captures")
	}

	for name, wantRows := range golden.Captures {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("open corpus capture: %v", err)
		}
		rows := extractRows(t, f)
		_ = f.Close()
		if len(rows) != len(wantRows) {
			t.Errorf("%s: %d rows, golden has %d", name, len(rows), len(wantRows))
			continue
		}
		for i := range rows {
			if rows[i] != wantRows[i] {
				t.Errorf("%s: frame %d feature row diverges:\n got %v\nwant %v", name, i, rows[i], wantRows[i])
			}
		}
	}
}

// extractRows decodes every frame of a capture and extracts its feature
// vector, with the per-capture extractor state (destination counter)
// threaded through in frame order — the same pipeline the fingerprint
// module uses.
func extractRows(t *testing.T, f *os.File) [][features.Count]float64 {
	t.Helper()
	recs, err := pcap.ReadAllAuto(f)
	if err != nil {
		t.Fatalf("read corpus capture %s: %v", f.Name(), err)
	}
	ex := features.NewExtractor()
	var rows [][features.Count]float64
	for _, rec := range recs {
		pk, err := packet.Decode(rec.Data)
		if err != nil {
			t.Fatalf("corpus frame does not decode: %v", err)
		}
		rows = append(rows, ex.Extract(pk).Vector())
	}
	return rows
}

func regenerate(t *testing.T, dir, goldenPath string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*devices.Profile)
	for _, p := range devices.Catalog() {
		byID[p.ID] = p
	}
	golden := goldenFile{Features: features.Names, Captures: make(map[string][][features.Count]float64)}
	for _, id := range conformanceProfiles {
		p, ok := byID[id]
		if !ok {
			t.Fatalf("profile %q not in catalog", id)
		}
		cap := devices.GenerateCaptures(p, 1, conformanceSeed)[0]
		name := id + ".pcap"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := cap.WritePCAP(f); err != nil {
			t.Fatalf("write corpus capture: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// Golden rows come from re-reading the file just written, so
		// the golden reflects the on-disk corpus, not in-memory state.
		rf, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden.Captures[name] = extractRows(t, rf)
		_ = rf.Close()
	}
	data, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("regenerated %s (%d captures)\n", goldenPath, len(golden.Captures))
}
