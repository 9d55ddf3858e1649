package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"iotsentinel/internal/fingerprint"
)

func TestIdentifierSaveLoad(t *testing.T) {
	id, _ := trainedIdentifier(t)
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	re, err := LoadIdentifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadIdentifier: %v", err)
	}
	if re.NumTypes() != id.NumTypes() {
		t.Fatalf("NumTypes: %d vs %d", re.NumTypes(), id.NumTypes())
	}
	// Forests, references and pool all came back: the copy saves as the
	// original did.
	var again bytes.Buffer
	if err := re.Save(&again); err != nil {
		t.Fatalf("Save after reload: %v", err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("a reloaded identifier saves to different bytes")
	}
	// Identical predictions on fresh probes.
	probes := synthType([]float64{60, 70, 80}, 10, 15, 500)
	for i, fp := range probes {
		a, b := id.Identify(fp), re.Identify(fp)
		if a.Type != b.Type {
			t.Errorf("probe %d: %q vs %q after reload", i, a.Type, b.Type)
		}
	}
}

func TestIdentifierLoadSupportsAddType(t *testing.T) {
	id, _ := trainedIdentifier(t)
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	re, err := LoadIdentifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadIdentifier: %v", err)
	}
	re, err = re.WithType("delta", synthType([]float64{1500, 1510}, 20, 15, 9))
	if err != nil {
		t.Fatalf("WithType after reload: %v", err)
	}
	hits := 0
	for _, fp := range synthType([]float64{1500, 1510}, 5, 15, 600) {
		if re.Identify(fp).Type == "delta" {
			hits++
		}
	}
	if hits < 4 {
		t.Errorf("new type after reload: %d/5", hits)
	}
}

// TestRuntimeConfigDoesNotSurviveLoad pins the serialization invariant
// the warm-boot bug family grew out of: Workers and CacheSize are
// runtime-only fields, so a Save/Load round trip silently drops them —
// a loaded identifier runs at the default fan-out with NO cache, no
// matter what the saving process was configured with. Every load site
// must re-apply them (ApplyRuntime); this test keeps the invariant
// visible so a future field added to Config is triaged deliberately.
func TestRuntimeConfigDoesNotSurviveLoad(t *testing.T) {
	samples := map[TypeID][]fingerprint.Fingerprint{
		"alpha": synthType([]float64{60, 70, 80}, 10, 15, 1),
		"beta":  synthType([]float64{200, 210, 220}, 10, 15, 2),
	}
	id, err := Train(samples, Config{Seed: 1, Workers: 3, CacheSize: 32})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if id.Cache() == nil {
		t.Fatal("CacheSize > 0 must attach a cache at train time")
	}
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	re, err := LoadIdentifier(&buf)
	if err != nil {
		t.Fatalf("LoadIdentifier: %v", err)
	}
	// The invariant: neither runtime field survives the round trip.
	if re.Cache() != nil {
		t.Error("cache survived Save/Load; CacheSize is supposed to be runtime-only")
	}
	if got := re.Workers(); got == 3 && runtime.GOMAXPROCS(0) != 3 {
		t.Errorf("Workers = %d survived Save/Load; Workers is supposed to be runtime-only", got)
	}
	// ...and ApplyRuntime is the designated repair at every load site.
	if err := re.ApplyRuntime(3, 32); err != nil {
		t.Fatalf("ApplyRuntime: %v", err)
	}
	if got := re.Workers(); got != 3 {
		t.Errorf("Workers after ApplyRuntime = %d, want 3", got)
	}
	if re.Cache() == nil {
		t.Fatal("ApplyRuntime(_, 32) must attach a cache")
	}
	probe := synthType([]float64{60, 70, 80}, 1, 15, 77)[0]
	re.Identify(probe)
	re.Identify(probe)
	if hits, _ := re.Cache().HeadStats(); hits == 0 {
		t.Error("replayed probe did not hit the re-attached cache")
	}
	// cacheSize 0 = disabled.
	if err := re.ApplyRuntime(0, 0); err != nil {
		t.Fatalf("ApplyRuntime(0, 0): %v", err)
	}
	if re.Cache() != nil {
		t.Error("ApplyRuntime(_, 0) must detach the cache")
	}
	if err := re.ApplyRuntime(-1, 0); err == nil {
		t.Error("negative workers must be rejected")
	}
	if err := re.ApplyRuntime(0, -1); err == nil {
		t.Error("negative cache size must be rejected")
	}
}

// TestWithTypeLeavesReceiver pins WithType's contract: the bank it
// grows from is a value — same types, same saved bytes, same cache
// still warm — while the new bank shares the trained models and answers
// as the receiver does on the types they share.
func TestWithTypeLeavesReceiver(t *testing.T) {
	samples := map[TypeID][]fingerprint.Fingerprint{
		"alpha": synthType([]float64{60, 70, 80}, 10, 15, 1),
		"beta":  synthType([]float64{200, 210, 220}, 10, 15, 2),
	}
	id, err := Train(samples, Config{Seed: 1, Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	probe := synthType([]float64{60, 70, 80}, 1, 15, 88)[0]
	want := id.Identify(probe) // warm the receiver's cache
	var before bytes.Buffer
	if err := id.Save(&before); err != nil {
		t.Fatal(err)
	}
	cache := id.Cache()
	grown, err := id.WithType("gamma", synthType([]float64{1500, 1510}, 10, 15, 9))
	if err != nil {
		t.Fatalf("WithType: %v", err)
	}
	if id.NumTypes() != 2 || grown.NumTypes() != 3 {
		t.Errorf("NumTypes: receiver %d (want 2), new bank %d (want 3)", id.NumTypes(), grown.NumTypes())
	}
	var after bytes.Buffer
	if err := id.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("WithType changed the receiver's saved bytes")
	}
	if grown.models["alpha"] != id.models["alpha"] {
		t.Error("WithType retrained (or copied) an existing classifier")
	}
	if id.Cache() != cache || id.Workers() != 2 {
		t.Errorf("receiver's binding changed: cache %p (was %p), %d workers", id.Cache(), cache, id.Workers())
	}
	if got := id.Identify(probe).Type; got != want.Type {
		t.Errorf("receiver now identifies %q, was %q", got, want.Type)
	}
	if hits, _ := id.Cache().HeadStats(); hits != 1 {
		t.Errorf("replayed probe: %d head hits on the receiver's cache, want 1", hits)
	}
	if got := grown.Identify(probe).Type; got != want.Type {
		t.Errorf("new bank identifies %q, receiver %q", got, want.Type)
	}
}

func TestLoadIdentifierErrors(t *testing.T) {
	block := func(f ...fingerprint.F) string {
		var raw []byte
		for _, one := range f {
			raw, _ = fingerprint.AppendF(raw, one)
		}
		return base64.StdEncoding.EncodeToString(raw)
	}
	leaf := `{"version":1,"nClasses":2,"trees":[{"nodes":[{"f":-1,"c":[1,1],"n":2,"l":-1,"r":-1}]}]}`
	model := func(refs, pool string) string {
		return `{"version":2,"config":{},"types":[{"id":"a","forest":` + leaf + `,"refs":"` + refs + `","pool":"` + pool + `"}]}`
	}
	good := block(fingerprint.F{7, 9}, fingerprint.F{11})
	if _, err := LoadIdentifier(strings.NewReader(model(good, good))); err != nil {
		t.Fatalf("the well-formed model the bad ones are cut from: %v", err)
	}
	tests := []struct {
		name string
		give string
		want string // in the error
	}{
		{"garbage", "{nope", ""},
		{"bad-version", `{"version":9,"config":{},"types":[{"id":"a"}]}`, "version 9"},
		{"version-1", `{"version":1,"config":{},"types":[{"id":"a","forest":` + leaf + `,"refs":[[[1]]],"pool":[[[1]]]}]}`, "retrain"},
		{"no-types", `{"version":2,"config":{},"types":[]}`, "no types"},
		{"bad-forest", `{"version":2,"config":{},"types":[{"id":"a","forest":{},"pool":"` + good + `"}]}`, ""},
		{"empty-pool", model(good, ""), "empty training pool"},
		{"float-rows-in-version-2", `{"version":2,"config":{},"types":[{"id":"a","forest":` + leaf + `,"pool":[[[1]]]}]}`, ""},
		{"not-base64", model(good, "@@@@"), ""},
		// A block cut inside a row, inside the next block's row count, and
		// one whose count promises rows that are not there.
		{"pool-cut-in-row", model(good, good[:len(good)-4]), `"a" pool: fingerprint 1: fingerprint: F truncated`},
		{"refs-cut-in-count", model(base64.StdEncoding.EncodeToString([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0}), good), `"a" refs: fingerprint 1`},
		{"pool-count-tampered", model(good, base64.StdEncoding.EncodeToString([]byte{0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 7})), "fingerprint 0: fingerprint: F truncated"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := LoadIdentifier(strings.NewReader(tt.give))
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestLoadIdentifierRejectsUnpackableRows: loading is a boundary — a
// word the extractor cannot have produced is reported with its type,
// block and position, never carried into the pool as some other symbol.
func TestLoadIdentifierRejectsUnpackableRows(t *testing.T) {
	id, _ := trainedIdentifier(t)
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"refs", "pool"} {
		var model map[string]any
		if err := json.Unmarshal(buf.Bytes(), &model); err != nil {
			t.Fatal(err)
		}
		typ := model["types"].([]any)[0].(map[string]any)
		raw, err := base64.StdEncoding.DecodeString(typ[field].(string))
		if err != nil {
			t.Fatal(err)
		}
		raw[2] |= 0x80 // the reserved bit of the first fingerprint's first word
		typ[field] = base64.StdEncoding.EncodeToString(raw)
		tampered, err := json.Marshal(model)
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadIdentifier(bytes.NewReader(tampered))
		if err == nil {
			t.Fatalf("%s: model with a reserved bit set loaded", field)
		}
		for _, want := range []string{`"alpha" ` + field, "fingerprint 0", "row 0", "not a packed feature symbol"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", field, err, want)
			}
		}
	}
}
