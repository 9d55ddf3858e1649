package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
)

// modelDigest trains the 27-type bank on devices.GenerateDataset(20,
// seed) and returns the SHA-256 of its model file.
func modelDigest(t *testing.T, seed int64) string {
	t.Helper()
	samples := make(map[TypeID][]fingerprint.Fingerprint)
	for k, v := range devices.GenerateDataset(20, seed) {
		samples[TypeID(k)] = v
	}
	id, err := Train(samples, Config{Seed: seed})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	h := sha256.New()
	if err := id.Save(h); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelFileDigests pins the model file of the reference bank, byte
// for byte, at four seeds. The file holds every forest, every reference
// and the pool, so a trainer that draws one random number differently or
// breaks one tie the other way fails here. The digests were taken at
// commit 8dbd77a (the sort-per-feature trainer); this file drops into
// that commit unchanged.
func TestModelFileDigests(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "4a8e5510e1c53907e5851286df0a5741ba571062dd0ae3deb9ac4ea81ec4acb8",
		2: "5e472d2339f2f920b95f380af3683db8c0346b73a7f9a6151f7d3c65254c6fe1",
		3: "0ab91d7f997016d0f13e22dde25149a83db14fad4fc80eda04f17b6020c85d5e",
		4: "863cc4d7de3d28dcbaa24deb4829f2f195713882eedbfc7276f417347ca75899",
	} {
		if got := modelDigest(t, seed); got != want {
			t.Errorf("seed %d: model file SHA-256 = %s, want %s", seed, got, want)
		}
	}
}
