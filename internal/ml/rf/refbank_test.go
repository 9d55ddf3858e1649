package rf_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/ml/rf"
)

// TestBankPopcountAnswersReferenceBank compiles the 27-type bank core
// trains (20 captures a type, seed 1, as core's scan test and bench/ train
// it) and scans the F′ of every distinct head among 640 captures of each
// catalog profile. The popcount path must answer nearly every forest
// evaluation: a layout change that silently sent them all down the
// leaf-by-leaf sum would still decide right, only slower, and no other
// test would notice.
func TestBankPopcountAnswersReferenceBank(t *testing.T) {
	const seed = 1
	train := make(map[core.TypeID][]fingerprint.Fingerprint)
	for k, v := range devices.GenerateDataset(20, seed) {
		train[core.TypeID(k)] = v
	}
	id, err := core.Train(train, core.Config{Seed: seed})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var model struct {
		Config struct{ AcceptThreshold float64 }
		Types  []struct{ Forest json.RawMessage }
	}
	if err := json.Unmarshal(buf.Bytes(), &model); err != nil {
		t.Fatalf("model file: %v", err)
	}
	forests := make([]*rf.Forest, len(model.Types))
	for i, td := range model.Types {
		if forests[i], err = rf.Load(bytes.NewReader(td.Forest)); err != nil {
			t.Fatalf("type %d: %v", i, err)
		}
	}
	bank, err := rf.CompileBank(forests, 1, model.Config.AcceptThreshold, fingerprint.FPrimeLen)
	if err != nil {
		t.Fatalf("CompileBank: %v", err)
	}

	var probes [][]float64
	seen := make(map[fingerprint.Head]bool)
	for pi, prof := range devices.Catalog() {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(pi)*7919 + 2))
		for i := 0; i < 640; i++ {
			head := fingerprint.FromPackets(prof.Generate(rng).Packets).F.Head()
			if !seen[head] {
				seen[head] = true
				var prime fingerprint.FPrime
				head.Prime(&prime)
				probes = append(probes, prime[:])
			}
		}
	}
	if len(forests) != 27 || len(probes) < 1000 {
		t.Fatalf("%d types and %d distinct heads, want 27 and >= 1000", len(forests), len(probes))
	}
	answered, evaluated := bank.PopcountShare(probes)
	share := float64(answered) / float64(evaluated)
	t.Logf("popcount path answered %d of %d forest evaluations (%.1f %%)", answered, evaluated, 100*share)
	if share < 0.9 {
		t.Errorf("popcount path answered %.1f %% of forest evaluations, want >= 90 %%", 100*share)
	}
}
