package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
)

// TestModelFileDigests pins what training the 27-type bank on
// devices.GenerateDataset(20, seed) produces, at four seeds, two ways.
//
// forests is the SHA-256 of every forest's own wire bytes, each after its
// type's name, in type order: it does not depend on the model file's
// format, and its values were taken at commit 8dbd77a, whose trainer
// sorted the node's rows per tried feature. A trainer that draws one
// random number differently or breaks one tie the other way fails here.
//
// file is the SHA-256 of the version-2 model file (Identifier.Save):
// forests, references and pool. With version 1 and the same forests,
// 8dbd77a and the commit that changed the trainer both wrote
// 4a8e5510…ec4acb8, 5e472d23…254c6fe1, 0ab91d7f…20c85d5e and
// 863cc4d7…ca75899.
func TestModelFileDigests(t *testing.T) {
	for seed, want := range map[int64]struct{ file, forests string }{
		1: {"df9797963fe912d572e305ee494ae542e3a24760cc20ac23d79d61a4d667f8cb", "384c5c34cb669aebff55ed052e3728ec546aecb45162c11b1b75dfb7d8dcbdea"},
		2: {"38d88b200b4750e7ae32caf8caa01824891be86a6c0bc243b4fa52196617bd40", "d9577c3ce652c287bb8c26177f60a20d9934406915ac4b2f15e4bac27bef83e7"},
		3: {"caab554c3e9905352080bd10e38bb619840accbc5008c158bf0e66fbf3a91391", "ffd9324c96ed96a3fc3cdabc2965435ee159850be11f9d6b27eeefd2bb75e20c"},
		4: {"dcc63049a7bfa2996744fb13c324ad76b4a3ba8c6c2196f6a55bbc46fde70e8a", "516a00c87d3aef1781d333b24df2a0dc97ace064bd0c68ad52a12a0c77ed96f6"},
	} {
		samples := make(map[TypeID][]fingerprint.Fingerprint)
		for k, v := range devices.GenerateDataset(20, seed) {
			samples[TypeID(k)] = v
		}
		id, err := Train(samples, Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: Train: %v", seed, err)
		}
		file, forests := sha256.New(), sha256.New()
		if err := id.Save(file); err != nil {
			t.Fatalf("seed %d: Save: %v", seed, err)
		}
		for _, ty := range id.types {
			forests.Write([]byte(ty))
			if err := id.models[ty].forest.Save(forests); err != nil {
				t.Fatalf("seed %d: save forest %q: %v", seed, ty, err)
			}
		}
		if got := hex.EncodeToString(forests.Sum(nil)); got != want.forests {
			t.Errorf("seed %d: forests SHA-256 = %s, want %s", seed, got, want.forests)
		}
		if got := hex.EncodeToString(file.Sum(nil)); got != want.file {
			t.Errorf("seed %d: model file SHA-256 = %s, want %s", seed, got, want.file)
		}
	}
}

// TestWithTypeDigests pins the bank WithType grows: the 27-type dataset
// of devices.GenerateDataset(20, 1) with one type held out, trained at
// seed 7, then given the held-out type. Each value is the SHA-256 of the
// grown bank's model file. They were taken from the bank the
// predecessor built, Clone (a Save/Load round trip) followed by an
// in-place AddType, so WithType adds a type exactly as that did.
func TestWithTypeDigests(t *testing.T) {
	data := devices.GenerateDataset(20, 1)
	for held, want := range map[TypeID]string{
		"Aria":        "c29fd946ed1da5d932259398dbcc06953eae3dd76a8d9a2bb75c2a7ecd3d1a4a",
		"D-LinkSiren": "2a882becaf609214e11ad900be432c8e0e8ef123ba7f0a33c29f872385d33ab7",
		"iKettle2":    "ea8f692dabe62f7e33090ee5602ba568d3a7b1b811a9c5653738582864fd4b21",
		"HueBridge":   "658d79ffa5e42898eb569ef9c9de7d9e95a66c109dbfbc4f205e36a76dc7ddcc",
	} {
		samples := make(map[TypeID][]fingerprint.Fingerprint)
		for k, v := range data {
			if TypeID(k) != held {
				samples[TypeID(k)] = v
			}
		}
		id, err := Train(samples, Config{Seed: 7})
		if err != nil {
			t.Fatalf("without %s: Train: %v", held, err)
		}
		grown, err := id.WithType(held, data[string(held)])
		if err != nil {
			t.Fatalf("WithType(%s): %v", held, err)
		}
		file := sha256.New()
		if err := grown.Save(file); err != nil {
			t.Fatalf("WithType(%s): Save: %v", held, err)
		}
		if got := hex.EncodeToString(file.Sum(nil)); got != want {
			t.Errorf("WithType(%s): model file SHA-256 = %s, want %s", held, got, want)
		}
	}
}
