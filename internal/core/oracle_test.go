package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/testutil"
)

// Differential oracle for the zero-allocation identification hot path:
// the retired pipeline — a forest walk per type (AcceptSoft, which
// decides exactly as the exhaustive soft-probability comparison it
// replaced) and exhaustive DistanceSum discrimination with full
// per-candidate score maps — lives on here, and the production path (the
// compiled bank scan, F′ derived from F, budgeted sequential
// discrimination) is checked against it on every probe class the
// pipeline distinguishes.

// refIdentify is the retired Identify, verbatim up to the removed
// fan-out plumbing and the bank lock (the parallel and sequential paths were already
// proven bit-identical, so the sequential body is the oracle).
func refIdentify(id *Identifier, fp fingerprint.Fingerprint) Result {
	var res Result
	var matches []TypeID
	for _, t := range id.types {
		m := id.models[t]
		if m.forest.AcceptSoft(fp.FPrime[:], 1, id.cfg.AcceptThreshold) {
			matches = append(matches, t)
		}
	}
	res.Matches = matches
	switch len(matches) {
	case 0:
		res.Type = Unknown
		return res
	case 1:
		res.Type = matches[0]
		return res
	}
	if id.cfg.DisableDiscrimination {
		res.Type = matches[0]
		return res
	}
	res.Discriminated = true
	scores := make([]float64, len(matches))
	counts := make([]int, len(matches))
	for i, t := range matches {
		m := id.models[t]
		scores[i], counts[i] = m.refs.DistanceSum(fp.F)
	}
	res.Scores = make(map[TypeID]float64, len(matches))
	best, bestScore := matches[0], scores[0]
	for i, t := range matches {
		res.Scores[t] = scores[i]
		res.EditDistances += counts[i]
		if scores[i] < bestScore {
			best, bestScore = t, scores[i]
		}
	}
	res.Type = best
	return res
}

// oracleIdentifier trains a bank that exercises every pipeline path:
// sibling twins force multi-match discrimination, fillers give the bank
// scan single-match and reject work, and alien probes exercise the
// no-match path.
func oracleIdentifier(t testing.TB, cfg Config) *Identifier {
	t.Helper()
	samples := map[TypeID][]fingerprint.Fingerprint{
		"plug-a": synthType([]float64{100, 110}, 20, 15, 1),
		"plug-b": synthType([]float64{100, 110}, 20, 15, 2),
	}
	fillerSizes := []float64{300, 400, 500, 600, 700, 800, 900, 1000}
	for i, s := range fillerSizes {
		samples[TypeID("filler-"+string(rune('a'+i)))] =
			synthType([]float64{s, s + 10}, 20, 15, int64(10+i))
	}
	id, err := Train(samples, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return id
}

// discriminatingProbe returns a sibling probe that actually triggers
// multi-match discrimination on id (not every draw lands both
// classifiers above threshold).
func discriminatingProbe(t testing.TB, id *Identifier) fingerprint.Fingerprint {
	t.Helper()
	for _, fp := range synthType([]float64{100, 110}, 10, 15, 50) {
		if id.Identify(fp).Discriminated {
			return fp
		}
	}
	t.Fatal("no sibling probe triggered discrimination; oracle setup drifted")
	return fingerprint.Fingerprint{}
}

func oracleProbeSet() []fingerprint.Fingerprint {
	var probes []fingerprint.Fingerprint
	probes = append(probes, synthType([]float64{100, 110}, 8, 15, 50)...)   // siblings: multi-match
	probes = append(probes, synthType([]float64{300, 310}, 4, 15, 51)...)   // filler-a: single match
	probes = append(probes, synthType([]float64{9000, 9100}, 4, 15, 52)...) // alien: no match
	return probes
}

func checkAgainstOracle(t *testing.T, res, want Result, probe int) {
	t.Helper()
	if res.Type != want.Type {
		t.Fatalf("probe %d: Type = %q, oracle %q", probe, res.Type, want.Type)
	}
	if len(res.Matches) != len(want.Matches) {
		t.Fatalf("probe %d: Matches = %v, oracle %v", probe, res.Matches, want.Matches)
	}
	for i := range res.Matches {
		if res.Matches[i] != want.Matches[i] {
			t.Fatalf("probe %d: Matches = %v, oracle %v", probe, res.Matches, want.Matches)
		}
	}
	if res.Discriminated != want.Discriminated {
		t.Fatalf("probe %d: Discriminated = %v, oracle %v", probe, res.Discriminated, want.Discriminated)
	}
	if !res.Discriminated {
		return
	}
	// The winner's score must be completed and bit-identical; every
	// other completed score must also match the exhaustive value
	// (abandoned candidates are simply absent).
	ws, ok := res.Scores[res.Type]
	if !ok {
		t.Fatalf("probe %d: winner %q missing from Scores %v", probe, res.Type, res.Scores)
	}
	if ws != want.Scores[want.Type] {
		t.Fatalf("probe %d: winner score %v, oracle %v (must be bit-identical)", probe, ws, want.Scores[want.Type])
	}
	for c, s := range res.Scores {
		if s != want.Scores[c] {
			t.Fatalf("probe %d: completed score %q = %v, oracle %v", probe, c, s, want.Scores[c])
		}
	}
	if res.EditDistances == 0 || res.EditDistances > want.EditDistances {
		t.Fatalf("probe %d: EditDistances = %d, oracle %d (budgeted path may only do less work)",
			probe, res.EditDistances, want.EditDistances)
	}
}

func TestIdentifyMatchesRetiredPipeline(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 7, NegativeRatio: 4, Workers: 1},
		{Seed: 7, NegativeRatio: 4, Workers: 4},
		{Seed: 7, NegativeRatio: 4, Workers: 1, AcceptThreshold: 0.3},
		{Seed: 7, NegativeRatio: 4, Workers: 1, DisableDiscrimination: true},
	} {
		id := oracleIdentifier(t, cfg)
		sawDiscrimination := false
		for pi, fp := range oracleProbeSet() {
			want := refIdentify(id, fp)
			checkAgainstOracle(t, id.Identify(fp), want, pi)
			sawDiscrimination = sawDiscrimination || want.Discriminated
		}
		if !sawDiscrimination && !cfg.DisableDiscrimination {
			t.Fatalf("cfg %+v: no probe exercised discrimination; oracle coverage drifted", cfg)
		}
	}
}

// naiveDistance is the restricted Damerau-Levenshtein distance by the
// full O(n·m) matrix: the textbook recurrence, independent of the
// bit-vector kernel editdist runs.
func naiveDistance(a, b fingerprint.F) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				d[i][j] = min(d[i][j], d[i-2][j-2]+1)
			}
		}
	}
	return d[len(a)][len(b)]
}

// naiveIdentify is Identify with discrimination by naiveDistance: the
// forests walked per type, then the candidates scored in match order
// under the running best sum, each abandoned before a reference once
// its sum has reached the best, or at a reference that would take it
// there — the budgeted scoring's contract, with no budgets and no
// cut-offs. Every field but the timings is what Identify must answer.
func naiveIdentify(id *Identifier, fp fingerprint.Fingerprint) Result {
	var res Result
	for _, t := range id.types {
		if id.models[t].forest.AcceptSoft(fp.FPrime[:], 1, id.cfg.AcceptThreshold) {
			res.Matches = append(res.Matches, t)
		}
	}
	switch len(res.Matches) {
	case 0:
		res.Type = Unknown
		return res
	case 1:
		res.Type = res.Matches[0]
		return res
	}
	res.Discriminated = true
	res.Scores = make(map[TypeID]float64)
	best := math.Inf(1)
	res.Type = res.Matches[0]
	for _, t := range res.Matches {
		sum, completed := 0.0, true
		for _, ref := range id.models[t].refs.Refs() {
			if sum >= best {
				completed = false
				break
			}
			res.EditDistances++
			ml := max(len(fp.F), len(ref))
			if ml == 0 {
				continue
			}
			next := sum + float64(naiveDistance(fp.F, ref))/float64(ml)
			if next >= best {
				completed = false
				break
			}
			sum = next
		}
		if completed {
			res.Scores[t] = sum
			if sum < best {
				best, res.Type = sum, t
			}
		}
	}
	return res
}

// TestBank27MatchesNaiveDiscrimination holds the production pipeline —
// the bit-vector kernel, its cut-offs and the budgets — to naiveIdentify
// over every distinct fingerprint of 640 setup captures per catalog
// profile (drawn as bench/ draws service_identify's), on the 27-type
// bank at seeds 1–3: every Result field but the timings equal.
func TestBank27MatchesNaiveDiscrimination(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		samples := make(map[TypeID][]fingerprint.Fingerprint)
		for k, v := range devices.GenerateDataset(20, seed) {
			samples[TypeID(k)] = v
		}
		id, err := Train(samples, Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: Train: %v", seed, err)
		}
		seen := make(map[fingerprint.Key]bool)
		discriminated := 0
		for pi, prof := range devices.Catalog() {
			rng := rand.New(rand.NewSource(seed*1000003 + int64(pi)*7919 + 2))
			for i := 0; i < 640; i++ {
				fp := fingerprint.FromPackets(prof.Generate(rng).Packets)
				if k := fp.CanonicalKey(); seen[k] {
					continue
				}
				seen[fp.CanonicalKey()] = true
				got, want := semantic(id.Identify(fp)), naiveIdentify(id, fp)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s capture %d:\n  Identify: %+v\n  naive:    %+v", seed, prof.ID, i, got, want)
				}
				if want.Discriminated {
					discriminated++
				}
			}
		}
		t.Logf("seed %d: %d distinct fingerprints, %d discriminated", seed, len(seen), discriminated)
		if discriminated == 0 {
			t.Fatalf("seed %d: no fingerprint was discriminated", seed)
		}
	}
}

// TestIdentifyBatchMatchesIdentify pins element-wise equivalence of the
// batch path (which shares Result buffers per worker) to single calls.
func TestIdentifyBatchMatchesIdentify(t *testing.T) {
	id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, Workers: 4})
	probes := oracleProbeSet()
	batch := id.IdentifyBatch(probes)
	for i, fp := range probes {
		checkAgainstOracle(t, batch[i], refIdentify(id, fp), i)
	}
}

// TestIdentifyIntoZeroAllocSteadyState asserts the tentpole property:
// after warm-up, an IdentifyInto loop reusing one Result performs zero
// heap allocations on every pipeline path — no match, single match, and
// multi-match with edit-distance discrimination.
func TestIdentifyIntoZeroAllocSteadyState(t *testing.T) {
	id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, Workers: 1})
	sibling := discriminatingProbe(t, id)
	single := synthType([]float64{300, 310}, 1, 15, 51)[0]
	alien := synthType([]float64{9000, 9100}, 1, 15, 52)[0]

	var res Result
	id.IdentifyInto(sibling, &res)
	testutil.AssertZeroAllocs(t, "IdentifyInto/discriminated", func() { id.IdentifyInto(sibling, &res) })
	testutil.AssertZeroAllocs(t, "IdentifyInto/single-match", func() { id.IdentifyInto(single, &res) })
	testutil.AssertZeroAllocs(t, "IdentifyInto/no-match", func() { id.IdentifyInto(alien, &res) })
}

// TestIdentifyCacheHitZeroAlloc asserts the cached steady state: once a
// probe has been identified, its replays allocate nothing — a
// single-match replay answered by the head memo alone, and a
// discriminated replay answered under the full key (canonical hashing
// included).
func TestIdentifyCacheHitZeroAlloc(t *testing.T) {
	t.Run("head-decided", func(t *testing.T) {
		id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, Workers: 1, CacheSize: 64})
		single := synthType([]float64{300, 310}, 1, 15, 51)[0]
		var res Result
		id.IdentifyInto(single, &res) // the forests fill the head memo
		if len(res.Matches) != 1 {
			t.Fatalf("%d matches, want a single-match probe", len(res.Matches))
		}
		testutil.AssertZeroAllocs(t, "IdentifyInto/head-decided", func() { id.IdentifyInto(single, &res) })
		hits, misses := id.Cache().Stats()
		if headHits, _ := id.Cache().HeadStats(); headHits == 0 || hits+misses != 0 {
			t.Fatalf("%d head hits and %d full-key lookups: want replays answered by the head memo alone", headHits, hits+misses)
		}
	})
	t.Run("discriminated", func(t *testing.T) {
		id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, Workers: 1, CacheSize: 64})
		probe := discriminatingProbe(t, id) // stores the answer under the full key
		var res Result
		id.IdentifyInto(probe, &res)
		if !res.Discriminated || res.DiscriminateTime != 0 {
			t.Fatalf("replay: Discriminated %v, DiscriminateTime %v; want a stored answer that ran no discrimination", res.Discriminated, res.DiscriminateTime)
		}
		testutil.AssertZeroAllocs(t, "IdentifyInto/full-key-hit", func() { id.IdentifyInto(probe, &res) })
		if hits, _ := id.Cache().Stats(); hits == 0 {
			t.Fatal("steady-state calls did not hit the full key")
		}
	})
}

// TestIdentifyBatchAllocatesOnlyItsAnswers bounds the batch path: what
// IdentifyBatch allocates is the []Result it returns, the two fan-out
// closures (forEachIndexed wraps the work item for runIndexed), and each
// Result's own Matches and Scores — exactly what a fresh Result costs
// through IdentifyInto. Nothing per probe is spent
// on symbol tables, words or float rows.
func TestIdentifyBatchAllocatesOnlyItsAnswers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, Workers: 1})
	probes := oracleProbeSet()
	id.IdentifyBatch(probes) // warm the scratch pool
	answers := 0.0
	for _, fp := range probes {
		answers += testing.AllocsPerRun(20, func() {
			var res Result
			id.IdentifyInto(fp, &res)
		})
	}
	testutil.AssertAllocs(t, "IdentifyBatch", answers+3, func() { _ = id.IdentifyBatch(probes) })
}

// BenchmarkIdentifySteadyState is the production single-probe hot path:
// IdentifyInto with a reused Result on a discriminating sibling probe —
// classifier bank and budgeted discrimination included. Like the other
// benchmarks here it runs at the default worker bound, as the daemons
// do; with no cache attached there is no head memo, so it times the
// bank.
func BenchmarkIdentifySteadyState(b *testing.B) {
	id := oracleIdentifier(b, Config{Seed: 7, NegativeRatio: 4})
	probe := discriminatingProbe(b, id)
	var res Result
	id.IdentifyInto(probe, &res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.IdentifyInto(probe, &res)
	}
}

// BenchmarkIdentifyBatchSteadyState pipelines a mixed probe batch
// through the bank, the batch-identification analogue of the above.
func BenchmarkIdentifyBatchSteadyState(b *testing.B) {
	id := oracleIdentifier(b, Config{Seed: 7, NegativeRatio: 4})
	probes := oracleProbeSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = id.IdentifyBatch(probes)
	}
}

// BenchmarkIdentifyCacheHit is the replayed-probe path: answers served
// from the identification cache without touching the bank. The probe
// matches one type, so the head memo answers it.
func BenchmarkIdentifyCacheHit(b *testing.B) {
	id := oracleIdentifier(b, Config{Seed: 7, NegativeRatio: 4, CacheSize: 64})
	probe := synthType([]float64{100, 110}, 1, 15, 50)[0]
	var res Result
	id.IdentifyInto(probe, &res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.IdentifyInto(probe, &res)
	}
}

// BenchmarkIdentifyWarmBootCached replays a probe against an identifier
// that went through the production warm-boot sequence: Save, Load,
// ApplyRuntime to re-attach the cache. It pins the cache-attachment fix
// on the boot path — if a load site stops re-applying the runtime
// config, this degenerates to full bank scans and the bench gate trips.
func BenchmarkIdentifyWarmBootCached(b *testing.B) {
	trained := oracleIdentifier(b, Config{Seed: 7, NegativeRatio: 4})
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		b.Fatal(err)
	}
	id, err := LoadIdentifier(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := id.ApplyRuntime(0, 64); err != nil {
		b.Fatal(err)
	}
	probe := synthType([]float64{100, 110}, 1, 15, 50)[0]
	var res Result
	id.IdentifyInto(probe, &res) // the forests fill the head memo
	id.IdentifyInto(probe, &res)
	if hits, _ := id.Cache().HeadStats(); hits == 0 {
		b.Fatal("warm-boot identifier is not serving from its cache")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.IdentifyInto(probe, &res)
	}
}
