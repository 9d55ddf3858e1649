package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/obs"
)

func synthType(sizes []float64, protoFeat, n, pktLen int, seed int64) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, 0, n)
	for i := 0; i < n; i++ {
		vs := make([]features.Vector, 0, pktLen)
		for j := 0; j < pktLen; j++ {
			var v features.Vector
			v[features.FeatIP] = 1
			v[protoFeat] = 1
			v[features.FeatSize] = sizes[rng.Intn(len(sizes))]
			v[features.FeatDstIPCounter] = float64(j%3 + 1)
			vs = append(vs, v)
		}
		out = append(out, fingerprint.FromVectors(vs))
	}
	return out
}

func trainSmall(t *testing.T) *core.Identifier { return trainSeed(t, 42) }

// trainSeed trains a two-type bank; distinct seeds give distinct banks.
func trainSeed(t *testing.T, seed int64) *core.Identifier {
	t.Helper()
	id, err := core.Train(map[core.TypeID][]fingerprint.Fingerprint{
		"alpha": synthType([]float64{60, 70, 80}, features.FeatUDP, 12, 12, 1),
		"beta":  synthType([]float64{200, 210, 220}, features.FeatTCP, 12, 12, 2),
	}, core.Config{Seed: seed})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return id
}

func TestModelStoreSaveLoad(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	s, _ := openT(t, t.TempDir(), Options{Metrics: m})
	defer s.Close()
	ms := s.Models()
	id := trainSmall(t)
	sha, err := ms.Save(id)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	// The serving bank is the blob named by its own hash.
	blob, err := ms.LoadVersion(sha)
	if err != nil {
		t.Fatalf("the saved bank is not a blob: %v", err)
	}
	var want bytes.Buffer
	if err := id.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want.Bytes()) {
		t.Error("the stored blob is not the bank's encoding")
	}

	re, sha2, err := ms.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sha2 != sha || re.NumTypes() != 2 {
		t.Errorf("Load = %d types, sha %.12s; saved sha %.12s", re.NumTypes(), sha2, sha)
	}
	// The reloaded bank answers identically.
	for i, fp := range synthType([]float64{60, 70, 80}, features.FeatUDP, 5, 12, 99) {
		a, b := id.Identify(fp), re.Identify(fp)
		if a.Type != b.Type {
			t.Errorf("probe %d: %q vs %q after reload", i, a.Type, b.Type)
		}
	}
	// Bytes that arrived from elsewhere are served as they came.
	if got, err := ms.SaveServing(want.Bytes()); err != nil || got != sha {
		t.Errorf("SaveServing of the same bytes = %.12s, %v; want %.12s", got, err, sha)
	}
	snap := reg.Snapshot()
	if got := snap.Value("store_model_loads_total", "source", "disk"); got != 1 {
		t.Errorf("disk model loads = %v, want 1", got)
	}
	if got := snap.Value("store_model_saves_total"); got != 1 {
		t.Errorf("model saves = %v, want 1 (the second save of one blob writes nothing)", got)
	}
	ms.LoadedFromTraining()
	if got := reg.Snapshot().Value("store_model_loads_total", "source", "train"); got != 1 {
		t.Errorf("train model loads = %v, want 1", got)
	}
}

// TestModelStoreLoadBeforeSave: a store no bank was saved to is a cold
// start, which the caller tells from a rejected bank by fs.ErrNotExist.
func TestModelStoreLoadBeforeSave(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	id, sha, err := s.Models().Load()
	if !errors.Is(err, fs.ErrNotExist) || id != nil || sha != "" {
		t.Fatalf("Load before Save = %v, %q, %v; want an error wrapping fs.ErrNotExist", id, sha, err)
	}
}

// TestModelStoreRejectsTamper proves validation-before-swap: a blob
// whose bytes no longer hash to its name, a blob that hashes right but
// is not a bank, a pointer to a missing blob and a pointer that is not
// a SHA-256 each fail Load with an error and no identifier — and none
// of them passes for a cold start.
func TestModelStoreRejectsTamper(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	ms := s.Models()
	sha, err := ms.Save(trainSmall(t))
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(ms.dir, versionsDir, sha+".model")
	pristine, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	pointer := filepath.Join(ms.dir, servingName)
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/3] ^= 0x01
	for name, damage := range map[string]func(){
		"flipped byte":   func() { writeFile(t, blob, flipped) },
		"truncated blob": func() { writeFile(t, blob, pristine[:len(pristine)/2]) },
		"not a bank": func() {
			if _, err := ms.SaveServing([]byte(`{"version":2}`)); err != nil {
				t.Fatal(err)
			}
		},
		"missing blob":    func() { writeFile(t, pointer, []byte(hex.EncodeToString(make([]byte, sha256.Size)))) },
		"garbage pointer": func() { writeFile(t, pointer, []byte("../../snapshot.bin")) },
		"empty pointer":   func() { writeFile(t, pointer, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			writeFile(t, blob, pristine)
			writeFile(t, pointer, []byte(sha+"\n"))
			if _, _, err := ms.Load(); err != nil {
				t.Fatalf("pristine store does not load: %v", err)
			}
			damage()
			id, got, err := ms.Load()
			if err == nil || id != nil || got != "" {
				t.Fatalf("damaged store loaded: %v, %q, %v", id, got, err)
			}
			if errors.Is(err, fs.ErrNotExist) {
				t.Errorf("a damaged store reads as a cold start: %v", err)
			}
		})
	}
}

// TestModelPointerCrash is a crash between a save's two renames: the
// new bank's blob is durable but the pointer still names the previous
// one (its temp file never renamed). Load serves the previous bank, and
// the next completed Save moves the pointer past it.
func TestModelPointerCrash(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{})
	defer s.Close()
	ms := s.Models()
	before, err := ms.Save(trainSeed(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	next := trainSeed(t, 2)
	var model bytes.Buffer
	if err := next.Save(&model); err != nil {
		t.Fatal(err)
	}
	after, err := ms.SaveVersion(model.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("the two banks have one SHA: the test proves nothing")
	}
	writeFile(t, filepath.Join(ms.dir, ".tmp-crashed"), []byte(after+"\n"))

	if _, sha, err := ms.Load(); err != nil || sha != before {
		t.Fatalf("after the crash Load = %.12s, %v; want the previous bank %.12s", sha, err, before)
	}
	if sha, err := ms.Save(next); err != nil || sha != after {
		t.Fatalf("Save after the crash = %.12s, %v; want %.12s", sha, err, after)
	}
	if _, sha, err := ms.Load(); err != nil || sha != after {
		t.Fatalf("Load after the completed save = %.12s, %v; want %.12s", sha, err, after)
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
