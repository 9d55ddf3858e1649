package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
)

// The compiled bank scan against the forests it was compiled from, on
// the benchmark's own working set: the 27-type reference bank as
// bench/topology.go's trainBank trains it and first-seen heads drawn as
// bench/pool.go's genFingerprints draws service_identify's inputs.

var (
	refBankOnce  sync.Once
	refBankTrain map[TypeID][]fingerprint.Fingerprint
	refBankHeads []fingerprint.Fingerprint
)

// referenceBank trains a fresh 27-type bank (20 captures a type, seed
// 1) and returns it with one fingerprint per distinct head among 640
// captures of every catalog profile.
func referenceBank(t testing.TB) (*Identifier, []fingerprint.Fingerprint) {
	t.Helper()
	refBankOnce.Do(func() {
		const seed = 1
		refBankTrain = make(map[TypeID][]fingerprint.Fingerprint)
		for k, v := range devices.GenerateDataset(20, seed) {
			refBankTrain[TypeID(k)] = v
		}
		seen := make(map[fingerprint.Head]struct{})
		for pi, prof := range devices.Catalog() {
			rng := rand.New(rand.NewSource(seed*1000003 + int64(pi)*7919 + 2))
			for i := 0; i < 640; i++ {
				fp := fingerprint.FromPackets(prof.Generate(rng).Packets)
				if _, dup := seen[fp.F.Head()]; !dup {
					seen[fp.F.Head()] = struct{}{}
					refBankHeads = append(refBankHeads, fp)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(refBankHeads), func(i, j int) {
			refBankHeads[i], refBankHeads[j] = refBankHeads[j], refBankHeads[i]
		})
	})
	id, err := Train(refBankTrain, Config{Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(id.bank) != 27 || len(refBankHeads) < 1000 {
		t.Fatalf("%d types and %d distinct heads, want 27 and >= 1000", len(id.bank), len(refBankHeads))
	}
	return id, refBankHeads
}

// checkScanBank holds scanBank's accept set for every probe's head to
// the forests of id.bank asked one by one, and returns how many
// (probe, forest) pairs accepted.
func checkScanBank(t *testing.T, stage string, id *Identifier, probes []fingerprint.Fingerprint) (accepts int) {
	t.Helper()
	sc := id.getScratch()
	defer id.scratch.Put(sc)
	var prime fingerprint.FPrime
	for pi, fp := range probes {
		head := fp.F.Head()
		accepted := sc.acceptSet(len(id.bank))
		id.scanBank(&head, sc, accepted)
		head.Prime(&prime)
		for i, m := range id.bank {
			want := m.forest.AcceptSoft(prime[:], 1, id.cfg.AcceptThreshold)
			if got := accepted[i/64]>>(i%64)&1 == 1; got != want {
				t.Fatalf("%s: probe %d type %q: scan accepts = %v, AcceptSoft = %v", stage, pi, id.types[i], got, want)
			}
			if want {
				accepts++
			}
		}
	}
	return accepts
}

// TestScanBankMatchesForests: the compiled form is rebuilt wherever the
// bank is — Train, WithType (a type sorting into the middle, so every
// later bank index moves), LoadIdentifier — and after each the scan
// accepts exactly what the forests accept.
func TestScanBankMatchesForests(t *testing.T) {
	ref, probes := referenceBank(t)
	if n := checkScanBank(t, "trained", ref, probes); n < len(probes)/2 {
		t.Fatalf("only %d accepts over %d heads: the probes do not exercise the accept path", n, len(probes))
	}

	extra := synthType([]float64{1500, 1510}, 20, 15, 77)
	id, err := ref.WithType("H-extra", extra)
	if err != nil {
		t.Fatalf("WithType: %v", err)
	}
	if id.types[0] >= "H-extra" || id.types[len(id.types)-1] <= "H-extra" {
		t.Fatalf("H-extra does not sort inside %v", id.types)
	}
	if checkScanBank(t, "after WithType, its own", id, extra) == 0 {
		t.Fatal("the added type accepts none of its own fingerprints: a stale scan would pass")
	}
	checkScanBank(t, "after WithType", id, probes)
	probes = append(append([]fingerprint.Fingerprint(nil), probes...), extra...)

	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadIdentifier(&buf)
	if err != nil {
		t.Fatalf("LoadIdentifier: %v", err)
	}
	if err := loaded.ApplyRuntime(1, DefaultCacheSize); err != nil {
		t.Fatalf("ApplyRuntime: %v", err)
	}
	if got, want := checkScanBank(t, "after Save/Load", loaded, probes), checkScanBank(t, "again", id, probes); got != want {
		t.Fatalf("loaded bank accepts %d (probe, type) pairs, the saved one %d", got, want)
	}
}

// BenchmarkScanBank27 is the stage every first-seen head pays for, on
// the working set service_identify gives it: the 27-type bank, round
// robin over more than a thousand distinct heads, so neither the branch
// predictor nor the cache learns a probe (BenchmarkIdentifySteadyState
// replays one probe against a ten-type bank and measures that instead).
func BenchmarkScanBank27(b *testing.B) {
	id, probes := referenceBank(b)
	heads := make([]fingerprint.Head, len(probes))
	for i, fp := range probes {
		heads[i] = fp.F.Head()
	}
	sc := id.getScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.scanBank(&heads[i%len(heads)], sc, sc.acceptSet(len(id.bank)))
	}
}
