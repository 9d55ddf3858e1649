package core

import (
	"bytes"
	"runtime"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// bankSamples is devices.GenerateDataset(n, seed) keyed by TypeID.
func bankSamples(n int, seed int64) map[TypeID][]fingerprint.Fingerprint {
	samples := make(map[TypeID][]fingerprint.Fingerprint)
	for k, v := range devices.GenerateDataset(n, seed) {
		samples[TypeID(k)] = v
	}
	return samples
}

// bankRetainedBytes is the heap a 27-type bank trained on
// devices.GenerateDataset(20, seed) keeps after a collection, the
// dataset itself dropped: forests, compiled scan, references and the
// training pool, whose rows the bank shares with the dataset's F.
func bankRetainedBytes(t *testing.T, seed int64) float64 {
	var before, after runtime.MemStats
	runtime.GC() // twice: the second empties the sync.Pool victim caches
	runtime.GC()
	runtime.ReadMemStats(&before)
	id, err := Train(bankSamples(20, seed), Config{Seed: seed})
	if err != nil {
		t.Fatalf("seed %d: Train: %v", seed, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(id)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestBankFootprint pins what a trained bank retains: at most 1.2 MB
// for 27 types of 20 fingerprints. A pool of whole Fingerprint values
// kept 540 × 2 240 B of them, 2.3 MB in all; a pool of F keeps 8 B a
// row, about 1.0 MB in all. Not parallel: it reads the process heap.
func TestBankFootprint(t *testing.T) {
	const bound = 1.2 * (1 << 20)
	for seed := int64(1); seed <= 3; seed++ {
		got := bankRetainedBytes(t, seed)
		t.Logf("seed %d: the bank retains %.0f B", seed, got)
		if got > bound {
			t.Errorf("seed %d: the bank retains %.0f B, bound %.0f", seed, got, float64(bound))
		}
	}
}

// TestTrainUsesCallersFPrime pins the contract the fingerprint-length
// ablation (report.AblateFingerprintLength) stands on: Train fits the
// forests to the F′ its caller passes, not to one derived from F. A
// bank trained on F′ zeroed past 4 packets never splits on a later
// column (a constant column is never a split), while the bank trained
// on the same fingerprints' full F′ does, and the two differ.
func TestTrainUsesCallersFPrime(t *testing.T) {
	const keep = 4 * features.Count
	full := bankSamples(10, 5)
	cut := make(map[TypeID][]fingerprint.Fingerprint, len(full))
	for ty, fps := range full {
		cp := append([]fingerprint.Fingerprint(nil), fps...)
		for i := range cp {
			clear(cp[i].FPrime[keep:])
		}
		cut[ty] = cp
	}
	train := func(samples map[TypeID][]fingerprint.Fingerprint) (*Identifier, []byte) {
		id, err := Train(samples, Config{Seed: 5})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		var buf bytes.Buffer
		if err := id.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		return id, buf.Bytes()
	}
	cutBank, cutFile := train(cut)
	fullBank, fullFile := train(full)
	for i, m := range cutBank.bank {
		if err := m.forest.ValidateFeatures(keep); err != nil {
			t.Errorf("%s, trained on F′ cut to %d columns: %v", cutBank.types[i], keep, err)
		}
	}
	beyond := 0
	for _, m := range fullBank.bank {
		if m.forest.ValidateFeatures(keep) != nil {
			beyond++
		}
	}
	if beyond == 0 {
		t.Errorf("no forest of the full-F′ bank splits past column %d: the test shows nothing", keep)
	}
	if bytes.Equal(cutFile, fullFile) {
		t.Error("the banks trained on cut and on full F′ save the same model file")
	}
}
