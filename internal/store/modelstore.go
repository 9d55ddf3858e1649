package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"iotsentinel/internal/core"
)

// ModelStore persists the trained classifier bank (the per-type
// rf.Forest ensembles behind a core.Identifier) so a gateway or
// service restart loads it from disk in milliseconds instead of
// retraining, and supports hot reload with validation-before-swap: a
// model file that fails its checksum or structural validation is
// rejected and the running bank stays untouched.
//
// Layout inside the state directory:
//
//	models/model.json      core.Identifier wire format (embeds rf)
//	models/manifest.json   ModelManifest with the model's SHA-256
//
// Both are written temp → fsync → rename; the manifest last, so a
// crash mid-save leaves a manifest that still describes the previous
// model (or a dangling new model file the next save overwrites).
type ModelStore struct {
	dir string
	m   *Metrics
}

const (
	modelName    = "model.json"
	manifestName = "manifest.json"

	manifestVersion = 1
)

// ModelManifest describes the persisted model for validation before
// load and for operator display.
type ModelManifest struct {
	Version int       `json:"version"`
	SHA256  string    `json:"sha256"`
	Size    int64     `json:"size"`
	SavedAt time.Time `json:"savedAt"`
	// Types is the device-type count, cross-checked after load.
	Types int `json:"types"`
}

// NewModelStore opens a model store rooted at dir (created if needed).
// Stores obtained via Store.Models share the state directory instead.
func NewModelStore(dir string) (*ModelStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: models: %w", err)
	}
	return &ModelStore{dir: dir}, nil
}

// Exists reports whether a saved model (with manifest) is present.
func (ms *ModelStore) Exists() bool {
	if _, err := os.Stat(filepath.Join(ms.dir, manifestName)); err != nil {
		return false
	}
	_, err := os.Stat(filepath.Join(ms.dir, modelName))
	return err == nil
}

// Save persists the identifier and its manifest atomically.
func (ms *ModelStore) Save(id *core.Identifier) (ModelManifest, error) {
	man := ModelManifest{Version: manifestVersion, Types: id.NumTypes()}
	err := writeAtomic(filepath.Join(ms.dir, modelName), func(f *os.File) error {
		h := sha256.New()
		w := bufio.NewWriter(io.MultiWriter(f, h))
		if err := id.Save(w); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		st, err := f.Stat()
		man.SHA256, man.Size, man.SavedAt = hex.EncodeToString(h.Sum(nil)), st.Size(), time.Now()
		return err
	})
	if err != nil {
		return ModelManifest{}, fmt.Errorf("store: save model: %w", err)
	}
	payload, err := json.MarshalIndent(man, "", "  ")
	if err == nil {
		err = writeAtomic(filepath.Join(ms.dir, manifestName), func(f *os.File) error {
			_, err := f.Write(append(payload, '\n'))
			return err
		})
	}
	if err != nil {
		return ModelManifest{}, fmt.Errorf("store: save manifest: %w", err)
	}
	if err := syncDir(ms.dir); err != nil {
		return ModelManifest{}, err
	}
	ms.m.modelSaved()
	return man, nil
}

// Load reads, verifies, and rebuilds the persisted identifier: the
// model file must hash to the manifest's SHA-256, decode through
// core.LoadIdentifier's structural validation (which bounds-checks
// every forest node), and carry the manifest's type count. Any failure
// returns an error and nothing else — callers hot-reloading a bank
// swap only on success, so a bad file can never replace a good bank.
func (ms *ModelStore) Load() (*core.Identifier, ModelManifest, error) {
	var man ModelManifest
	data, err := os.ReadFile(filepath.Join(ms.dir, manifestName))
	if err != nil {
		return nil, ModelManifest{}, fmt.Errorf("store: load model: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, ModelManifest{}, fmt.Errorf("store: load manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, ModelManifest{}, fmt.Errorf("store: load manifest: unsupported version %d", man.Version)
	}
	model, err := os.ReadFile(filepath.Join(ms.dir, modelName))
	if err != nil {
		return nil, ModelManifest{}, fmt.Errorf("store: load model: %w", err)
	}
	sum := sha256.Sum256(model)
	if got := hex.EncodeToString(sum[:]); got != man.SHA256 {
		return nil, ModelManifest{}, fmt.Errorf("store: load model: checksum mismatch (manifest %s, file %s)",
			shortHash(man.SHA256), shortHash(got))
	}
	id, err := core.LoadIdentifier(bytes.NewReader(model))
	if err != nil {
		return nil, ModelManifest{}, err
	}
	if id.NumTypes() != man.Types {
		return nil, ModelManifest{}, fmt.Errorf("store: load model: %d device-types, manifest says %d",
			id.NumTypes(), man.Types)
	}
	ms.m.modelLoaded("disk")
	return id, man, nil
}

// LoadedFromTraining counts a cold bring-up: the caller trained the
// bank from scratch instead of loading it from disk. Comparing the
// "train" and "disk" sources of store_model_loads_total shows whether
// warm boots actually skip retraining.
func (ms *ModelStore) LoadedFromTraining() { ms.m.modelLoaded("train") }

// Versioned model blobs: the fleet controller keeps every bank it may
// still distribute — the current fleet version, a canarying candidate,
// and the rollback baseline — as content-addressed files, so a crashed
// controller can reload exactly the bytes a journaled rollout names.
//
// Layout: models/versions/<sha256-hex>.model, written temp → fsync →
// rename like everything else in the store. The filename is the
// content hash, so a partially renamed or tampered file is caught on
// load by rehashing.

const versionsDir = "versions"

// SaveVersion persists one opaque model blob under its SHA-256 and
// returns the hex digest. Saving bytes that are already present is a
// cheap no-op (content addressing makes the write idempotent).
func (ms *ModelStore) SaveVersion(model []byte) (string, error) {
	sum := sha256.Sum256(model)
	sha := hex.EncodeToString(sum[:])
	dir := filepath.Join(ms.dir, versionsDir)
	final := filepath.Join(dir, sha+".model")
	if _, err := os.Stat(final); err == nil {
		return sha, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: save version: %w", err)
	}
	err := writeAtomic(final, func(f *os.File) error {
		_, err := f.Write(model)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("store: save version: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	ms.m.modelSaved()
	return sha, nil
}

// LoadVersion reads a versioned model blob back and verifies it still
// hashes to its name; a corrupt blob returns an error, never bytes.
func (ms *ModelStore) LoadVersion(sha string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(ms.dir, versionsDir, sha+".model"))
	if err != nil {
		return nil, fmt.Errorf("store: load version: %w", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != sha {
		return nil, fmt.Errorf("store: load version: checksum mismatch (want %s, file %s)",
			shortHash(sha), shortHash(got))
	}
	return data, nil
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
