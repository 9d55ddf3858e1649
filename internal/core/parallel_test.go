package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/ml/rf"
	"iotsentinel/internal/obs"
)

// fastConfig keeps parallel-suite training cheap: the determinism and
// race properties under test do not depend on forest size.
func fastConfig(workers int) Config {
	return Config{
		Seed:    42,
		Workers: workers,
		Forest:  rf.Config{Trees: 5, MaxDepth: 8},
	}
}

func parallelSamples() map[TypeID][]fingerprint.Fingerprint {
	return map[TypeID][]fingerprint.Fingerprint{
		"alpha": synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 12, 12, 1),
		"beta":  synthTypeProto([]float64{200, 210, 220}, features.FeatTCP, 12, 12, 2),
		"gamma": synthTypeProto([]float64{500, 510, 520}, features.FeatICMP, 12, 12, 3),
		"delta": synthTypeProto([]float64{900, 910, 920}, features.FeatHTTP, 12, 12, 4),
		// Twin alphabets force multi-match so the parallel
		// discrimination stage is exercised, not just the vote stage.
		"plug-a": synthType([]float64{100, 110}, 12, 12, 5),
		"plug-b": synthType([]float64{100, 110}, 12, 12, 6),
		"filler": synthType([]float64{300, 310}, 12, 12, 7),
		"extra":  synthType([]float64{700, 710}, 12, 12, 8),
	}
}

// parallelProbes returns 200 probes spanning known types, sibling types
// (discrimination path) and never-trained traffic (unknown path).
func parallelProbes() []fingerprint.Fingerprint {
	var probes []fingerprint.Fingerprint
	probes = append(probes, synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 40, 12, 100)...)
	probes = append(probes, synthTypeProto([]float64{200, 210, 220}, features.FeatTCP, 40, 12, 101)...)
	probes = append(probes, synthType([]float64{100, 110}, 40, 12, 102)...)
	probes = append(probes, synthType([]float64{500, 510, 520}, 40, 12, 103)...)
	probes = append(probes, synthTypeProto([]float64{9000, 9100}, features.FeatEAPoL, 40, 12, 104)...)
	return probes
}

// resultsEquivalent compares everything except the wall-clock fields.
func resultsEquivalent(a, b Result) bool {
	return a.Type == b.Type &&
		reflect.DeepEqual(a.Matches, b.Matches) &&
		reflect.DeepEqual(a.Scores, b.Scores) &&
		a.Discriminated == b.Discriminated &&
		a.EditDistances == b.EditDistances
}

// TestParallelTrainingDeterminism is the tentpole guarantee: training
// at Workers=1 and Workers=8 with the same seed must produce
// bit-identical serialized models and identical identifications over
// 200 probes.
func TestParallelTrainingDeterminism(t *testing.T) {
	samples := parallelSamples()
	seq, err := Train(samples, fastConfig(1))
	if err != nil {
		t.Fatalf("Train sequential: %v", err)
	}
	par, err := Train(samples, fastConfig(8))
	if err != nil {
		t.Fatalf("Train parallel: %v", err)
	}

	var seqBytes, parBytes bytes.Buffer
	if err := seq.Save(&seqBytes); err != nil {
		t.Fatalf("Save sequential: %v", err)
	}
	if err := par.Save(&parBytes); err != nil {
		t.Fatalf("Save parallel: %v", err)
	}
	if !bytes.Equal(seqBytes.Bytes(), parBytes.Bytes()) {
		t.Fatalf("serialized models differ between Workers=1 and Workers=8 (%d vs %d bytes)",
			seqBytes.Len(), parBytes.Len())
	}

	probes := parallelProbes()
	if len(probes) != 200 {
		t.Fatalf("probe count = %d, want 200", len(probes))
	}
	for i, fp := range probes {
		a, b := seq.Identify(fp), par.Identify(fp)
		if !resultsEquivalent(a, b) {
			t.Fatalf("probe %d: sequential %+v vs parallel %+v", i, a, b)
		}
	}
}

// TestTrainTwiceSameSeedIdenticalBytes covers run-to-run determinism at
// a fixed worker count (goroutine scheduling must not leak into the
// model).
func TestTrainTwiceSameSeedIdenticalBytes(t *testing.T) {
	samples := parallelSamples()
	for _, workers := range []int{1, 8} {
		a, err := Train(samples, fastConfig(workers))
		if err != nil {
			t.Fatalf("Workers=%d first Train: %v", workers, err)
		}
		b, err := Train(samples, fastConfig(workers))
		if err != nil {
			t.Fatalf("Workers=%d second Train: %v", workers, err)
		}
		var ab, bb bytes.Buffer
		if err := a.Save(&ab); err != nil {
			t.Fatal(err)
		}
		if err := b.Save(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Errorf("Workers=%d: same seed, different serialized model", workers)
		}
	}
}

// TestAddTypeOrderIndependence: hash-derived per-type seeds make a
// classifier depend only on (seed, type, pool contents at training
// time), never on how many types were trained before it. Pre-existing
// classifiers legitimately differ between the two banks (the partial
// bank never saw "extra" in its negative pools — that is the
// incremental-learning property), but the added type's own model must
// be bit-identical to the one full training would build, since its
// negative pool is the same either way.
func TestAddTypeOrderIndependence(t *testing.T) {
	samples := parallelSamples()
	full, err := Train(samples, fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	partial := make(map[TypeID][]fingerprint.Fingerprint, len(samples)-1)
	for k, v := range samples {
		if k != "extra" {
			partial[k] = v
		}
	}
	inc, err := Train(partial, fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if inc, err = inc.WithType("extra", samples["extra"]); err != nil {
		t.Fatalf("WithType: %v", err)
	}
	var fb, ib bytes.Buffer
	if err := full.models["extra"].forest.Save(&fb); err != nil {
		t.Fatal(err)
	}
	if err := inc.models["extra"].forest.Save(&ib); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), ib.Bytes()) {
		t.Error("classifier for the added type differs between Train(all) and WithType")
	}
	if !reflect.DeepEqual(full.models["extra"].refs, inc.models["extra"].refs) {
		t.Error("discrimination references for the added type differ between Train(all) and WithType")
	}
}

// TestIdentifyBatchMatchesSequential: batch results must be
// element-wise identical to per-fingerprint Identify, in input order.
func TestIdentifyBatchMatchesSequential(t *testing.T) {
	id, err := Train(parallelSamples(), fastConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	probes := parallelProbes()
	batch := id.IdentifyBatch(probes)
	if len(batch) != len(probes) {
		t.Fatalf("batch returned %d results for %d probes", len(batch), len(probes))
	}
	for i, fp := range probes {
		if want := id.Identify(fp); !resultsEquivalent(batch[i], want) {
			t.Fatalf("probe %d: batch %+v vs sequential %+v", i, batch[i], want)
		}
	}
}

// TestIdentifyBatchEdgeCases is the table-driven edge-case sweep:
// empty batch, single fingerprint, batch larger than the worker count,
// and an all-zero (unknown-device) fingerprint.
func TestIdentifyBatchEdgeCases(t *testing.T) {
	id, err := Train(parallelSamples(), fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	known := synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 20, 12, 700)
	var zero fingerprint.Fingerprint // empty F, all-zero F′

	tests := []struct {
		name  string
		batch []fingerprint.Fingerprint
	}{
		{"empty", nil},
		{"empty-non-nil", []fingerprint.Fingerprint{}},
		{"single", known[:1]},
		{"larger-than-workers", known[:9]}, // Workers=2, 9 pending items
		{"all-zero-fingerprint", []fingerprint.Fingerprint{zero}},
		{"zero-mixed-with-known", append([]fingerprint.Fingerprint{zero}, known[:5]...)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := id.IdentifyBatch(tt.batch)
			if len(tt.batch) == 0 {
				if len(got) != 0 {
					t.Fatalf("empty batch returned %d results", len(got))
				}
				return
			}
			if len(got) != len(tt.batch) {
				t.Fatalf("got %d results for %d fingerprints", len(got), len(tt.batch))
			}
			for i, fp := range tt.batch {
				want := id.Identify(fp)
				if !resultsEquivalent(got[i], want) {
					t.Errorf("item %d: batch %+v vs sequential %+v", i, got[i], want)
				}
				if got[i].Type == Unknown && len(got[i].Matches) != 0 {
					t.Errorf("item %d: Unknown result carries matches %v", i, got[i].Matches)
				}
			}
		})
	}
}

// TestConfigRejectsNegativeWorkers: normalize must fail loudly instead
// of silently proceeding with a nonsensical pool size.
func TestConfigRejectsNegativeWorkers(t *testing.T) {
	samples := map[TypeID][]fingerprint.Fingerprint{
		"a": synthType([]float64{60}, 3, 5, 1),
		"b": synthType([]float64{300}, 3, 5, 2),
	}
	for _, workers := range []int{-1, -100} {
		if _, err := Train(samples, Config{Workers: workers}); err == nil {
			t.Errorf("Workers=%d: Train must reject negative worker counts", workers)
		}
	}
	// The boundary values stay valid.
	for _, workers := range []int{0, 1, 3} {
		if _, err := Train(samples, Config{Workers: workers, Forest: rf.Config{Trees: 3}}); err != nil {
			t.Errorf("Workers=%d: Train failed: %v", workers, err)
		}
	}
}

// headSharingProbes returns up to 40 probes in pairs that share their
// head and differ in F, so head-memo reads and fills race each other.
func headSharingProbes(t *testing.T) []fingerprint.Fingerprint {
	t.Helper()
	var probes []fingerprint.Fingerprint
	for _, fp := range parallelProbes() {
		if len(probes) == 40 {
			break
		}
		if len(fp.F) >= 2 && fp.F[0] != fp.F[len(fp.F)-1] {
			probes = append(probes, fp, sameHeadVariants(t, fp, 1)[0])
		}
	}
	return probes
}

// TestConcurrentIdentifierUse hammers one shared, cached Identifier
// with concurrent Identify, IdentifyBatch, ClassifyOnly, reads and
// Save; run with -race. Half the probes share their head with another
// and differ in F, so head-memo reads and fills race each other, and
// every answer must be the uncached bank's.
func TestConcurrentIdentifierUse(t *testing.T) {
	cfg := fastConfig(4)
	cfg.CacheSize = 16 // smaller than the probe set: eviction races too
	id, err := Train(parallelSamples(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := Train(parallelSamples(), fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	probes := headSharingProbes(t)
	hammer(t, id, uncached, probes, func() {
		for i := 0; i < 4; i++ {
			_ = id.Types()
			_ = id.NumTypes()
			var buf bytes.Buffer
			if err := id.Save(&buf); err != nil {
				t.Errorf("Save during churn: %v", err)
			}
		}
	})
	for i, fp := range probes {
		if got, want := id.Identify(fp), uncached.Identify(fp); !resultsEquivalent(got, want) {
			t.Errorf("probe %d after churn: cached %+v, uncached bank %+v", i, got, want)
		}
	}
}

// hammer runs Identify, ClassifyOnly and IdentifyBatch over probes on id
// from several goroutines, beside churn on one more, holding every
// answer to plain's.
func hammer(t *testing.T, id, plain *Identifier, probes []fingerprint.Fingerprint, churn func()) {
	t.Helper()
	want := make([]Result, len(probes))
	for i, fp := range probes {
		want[i] = plain.Identify(fp)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w*20 + i) % len(probes)
				if got := id.Identify(probes[k]); !resultsEquivalent(got, want[k]) {
					t.Errorf("probe %d: %+v, uncached bank %+v", k, got, want[k])
				}
				_ = id.ClassifyOnly(probes[k])
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				lo := (w*6 + i) % (len(probes) - 8)
				for j, got := range id.IdentifyBatch(probes[lo : lo+8]) {
					if !resultsEquivalent(got, want[lo+j]) {
						t.Errorf("batch probe %d: %+v, uncached bank %+v", lo+j, got, want[lo+j])
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		churn()
	}()
	wg.Wait()
}

// TestRuntimeRebindConcurrent: the runtime binding is the one write left
// on a bank once it is shared. ApplyRuntime, SetMetrics and AdoptRuntime
// replace it while Identify, IdentifyBatch, ClassifyOnly, Save and
// WithType run on the bank, with head-sharing probes; run with -race.
// Every answer must be the uncached bank's. Then ApplyRuntime and
// SetMetrics race each other alone, and the binding must end holding
// the last word of each: neither store may undo the other.
func TestRuntimeRebindConcurrent(t *testing.T) {
	cfg := fastConfig(4)
	cfg.CacheSize = 16
	id, err := Train(parallelSamples(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := Train(parallelSamples(), fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	donor, err := Train(parallelSamples(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	donor.SetMetrics(NewMetrics(obs.NewRegistry()))
	metrics := []*Metrics{NewMetrics(obs.NewRegistry()), NewMetrics(obs.NewRegistry())}
	probes := headSharingProbes(t)

	hammer(t, id, uncached, probes, func() {
		var wg sync.WaitGroup
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := id.ApplyRuntime(1+i%3, 8+i%9); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id.SetMetrics(metrics[i%2])
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id.AdoptRuntime(donor)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				var buf bytes.Buffer
				if err := id.Save(&buf); err != nil {
					t.Errorf("Save during rebinds: %v", err)
				}
				typ := TypeID(fmt.Sprintf("new-%d", i))
				grown, err := id.WithType(typ, synthType([]float64{1500 + float64(i*50), 1510 + float64(i*50)}, 8, 12, int64(900+i)))
				if err != nil {
					t.Errorf("WithType %s: %v", typ, err)
					continue
				}
				grown.AdoptRuntime(id)
				grown.IdentifyBatch(probes)
			}
		}()
		wg.Wait()
	})
	if id.NumTypes() != len(parallelSamples()) {
		t.Errorf("NumTypes after rebinds = %d, want %d", id.NumTypes(), len(parallelSamples()))
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := id.ApplyRuntime(1+i%3, 8+i%9); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id.SetMetrics(metrics[i%2])
		}
	}()
	wg.Wait()
	// The last ApplyRuntime was ApplyRuntime(2, 9), the last SetMetrics
	// metrics[1].
	if id.Workers() != 2 || id.Cache().cap != 9 || id.Metrics() != metrics[1] {
		t.Errorf("binding after racing rebinds: %d workers, cache of %d, metrics[1] %v; want 2, 9, true",
			id.Workers(), id.Cache().cap, id.Metrics() == metrics[1])
	}
}
