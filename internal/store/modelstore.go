package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"iotsentinel/internal/core"
)

// ModelStore keeps classifier banks (core.Identifier's wire format) in
// the state directory, so a restart loads the bank it served in
// milliseconds instead of retraining, and a fleet controller can reload
// exactly the bytes a journaled rollout names.
//
// Layout inside the state directory:
//
//	models/versions/<sha256-hex>.model   one bank's bytes, named by their hash
//	models/serving                       the SHA-256 of the node's serving bank
//
// Every bank is a content-addressed blob: the filename is the content
// hash, so a torn or tampered blob is caught on load by rehashing. The
// serving bank is whichever blob the pointer names. Blob and pointer
// are each written temp → fsync → rename, the blob first, so a crash
// mid-save leaves the pointer naming the previous bank (and at most an
// unreferenced blob).
type ModelStore struct {
	dir string
	m   *Metrics
}

const (
	versionsDir = "versions"
	servingName = "serving"
)

// Save encodes the identifier, stores it as a blob and makes it the
// serving bank. It returns the bank's SHA-256.
func (ms *ModelStore) Save(id *core.Identifier) (string, error) {
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		return "", fmt.Errorf("store: save model: %w", err)
	}
	return ms.SaveServing(buf.Bytes())
}

// SaveServing stores model as a blob and makes it the serving bank,
// byte for byte: a bank that arrived as bytes is served after a restart
// under the SHA-256 its sender named. The caller has validated model
// (core.LoadIdentifier); Load validates it again.
func (ms *ModelStore) SaveServing(model []byte) (string, error) {
	sha, err := ms.SaveVersion(model)
	if err != nil {
		return "", err
	}
	err = writeAtomic(filepath.Join(ms.dir, servingName), func(f *os.File) error {
		_, err := f.WriteString(sha + "\n")
		return err
	})
	if err == nil {
		err = syncDir(ms.dir)
	}
	if err != nil {
		return "", fmt.Errorf("store: save serving pointer: %w", err)
	}
	return sha, nil
}

// Load reads the serving bank: the pointer names a blob, the blob must
// hash to that name, and its bytes must pass core.LoadIdentifier's
// structural validation (which bounds-checks every forest node). It
// returns the bank and its SHA-256. Before the first Save the error
// wraps fs.ErrNotExist, so a caller can tell a cold start from a
// rejected bank; any other failure returns an error and nothing else —
// callers hot-reloading a bank swap only on success, so a bad file can
// never replace a good bank.
func (ms *ModelStore) Load() (*core.Identifier, string, error) {
	ptr, err := os.ReadFile(filepath.Join(ms.dir, servingName))
	if err != nil {
		return nil, "", fmt.Errorf("store: load model: %w", err)
	}
	sha := string(bytes.TrimSpace(ptr))
	if _, err := hex.DecodeString(sha); err != nil || len(sha) != 2*sha256.Size {
		return nil, "", fmt.Errorf("store: load model: serving pointer %q is not a SHA-256", shortHash(sha))
	}
	model, err := ms.LoadVersion(sha)
	if errors.Is(err, fs.ErrNotExist) {
		// A pointer to nothing is a damaged store, not a cold start.
		return nil, "", fmt.Errorf("store: load model: serving bank %s is missing", shortHash(sha))
	}
	if err != nil {
		return nil, "", err
	}
	id, err := core.LoadIdentifier(bytes.NewReader(model))
	if err != nil {
		return nil, "", err
	}
	ms.m.modelLoaded("disk")
	return id, sha, nil
}

// LoadedFromTraining counts a cold bring-up: the caller built the bank
// from its cold source (training, a model file) instead of loading it
// from the store. Comparing the "train" and "disk" sources of
// store_model_loads_total shows whether warm boots actually skip
// retraining.
func (ms *ModelStore) LoadedFromTraining() { ms.m.modelLoaded("train") }

// SaveVersion persists one model blob under its SHA-256 and returns the
// hex digest, without moving the serving pointer: the fleet controller
// keeps every bank it may still distribute — the current fleet version,
// a canarying candidate, the rollback baseline — this way. Saving bytes
// that are already present and intact is a no-op (content addressing
// makes the write idempotent); a damaged blob of that name is rewritten.
func (ms *ModelStore) SaveVersion(model []byte) (string, error) {
	sum := sha256.Sum256(model)
	sha := hex.EncodeToString(sum[:])
	if _, err := ms.LoadVersion(sha); err == nil {
		return sha, nil
	}
	dir := filepath.Join(ms.dir, versionsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: save version: %w", err)
	}
	err := writeAtomic(filepath.Join(dir, sha+".model"), func(f *os.File) error {
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

// LoadVersion reads a model blob back and verifies it still hashes to
// its name; a corrupt blob returns an error, never bytes.
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
