package core

import (
	"reflect"
	"slices"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/testutil"
)

// Tests of the cache's second level: the accept set memoized per
// fingerprint head. The memo is sound when an identifier with it
// answers exactly like one without, whatever was memoized before and
// whatever happened to the bank in between.

// sameHeadVariants returns n fingerprints that share fp's head and
// differ from it and from each other in F: each repeats, at the end,
// symbols F already holds, so no new unique symbol enters and the full
// key changes.
func sameHeadVariants(t testing.TB, fp fingerprint.Fingerprint, n int) []fingerprint.Fingerprint {
	t.Helper()
	if len(fp.F) < 2 || fp.F[0] == fp.F[len(fp.F)-1] {
		t.Fatalf("cannot derive same-head variants of %v", fp.F)
	}
	out := make([]fingerprint.Fingerprint, 0, n)
	syms := append([]features.Packed(nil), fp.F...)
	for i := 0; i < n; i++ {
		// Alternate the first and last symbols: never equal to the one
		// before, so FromPacked keeps every one of them.
		if i%2 == 0 {
			syms = append(syms, fp.F[0])
		} else {
			syms = append(syms, fp.F[len(fp.F)-1])
		}
		v := fingerprint.FromPacked(syms)
		if v.F.Head() != fp.F.Head() || v.CanonicalKey() == fp.CanonicalKey() {
			t.Fatalf("variant %d does not share the head alone", i)
		}
		out = append(out, v)
	}
	return out
}

// TestHeadMemoDifferential: over captures of all 27 catalog profiles,
// an identifier with the cache answers field for field like one without
// — in both orders of arrival, so every fingerprint is once the one
// that fills its head's entry and once one that reads it.
func TestHeadMemoDifferential(t *testing.T) {
	cached, plain, _ := trainedPair(t, 4096)
	var probes []fingerprint.Fingerprint
	for _, fps := range devices.GenerateDataset(12, 4242) {
		probes = append(probes, fps...)
	}
	if len(probes) != 27*12 {
		t.Fatalf("%d probes, want 27 profiles x 12 captures", len(probes))
	}
	want := make([]Result, len(probes))
	keys := make(map[fingerprint.Key]struct{})
	heads := make(map[fingerprint.Head]struct{})
	// Only discriminated answers are looked up, and stored, under the
	// full key.
	discriminated, discriminatedKeys := 0, make(map[fingerprint.Key]struct{})
	for i, fp := range probes {
		want[i] = semantic(plain.Identify(fp))
		keys[fp.CanonicalKey()] = struct{}{}
		heads[fp.F.Head()] = struct{}{}
		if want[i].Discriminated {
			discriminated++
			discriminatedKeys[fp.CanonicalKey()] = struct{}{}
		}
	}
	if len(heads) >= len(keys) {
		t.Fatalf("%d heads for %d fingerprints: the memo is unexercised", len(heads), len(keys))
	}
	if discriminated == 0 {
		t.Fatal("no probe was discriminated: the full key is unexercised")
	}
	for _, order := range []string{"forward", "reverse"} {
		if err := cached.ApplyRuntime(1, 4096); err != nil { // a fresh, empty cache
			t.Fatal(err)
		}
		for n := range probes {
			i := n
			if order == "reverse" {
				i = len(probes) - 1 - n
			}
			if got := semantic(cached.Identify(probes[i])); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s, probe %d: memoized answer differs:\n  cached: %+v\n  plain:  %+v", order, i, got, want[i])
			}
		}
		hits, misses := cached.Cache().Stats()
		headHits, headMisses := cached.Cache().HeadStats()
		if headHits+headMisses != uint64(len(probes)) || headMisses != uint64(len(heads)) ||
			hits+misses != uint64(discriminated) || misses != uint64(len(discriminatedKeys)) {
			t.Errorf("%s: %d head hits, %d head misses, %d full-key hits, %d full-key misses; want %d head lookups of which %d misses, %d full-key lookups of which %d misses",
				order, headHits, headMisses, hits, misses, len(probes), len(heads), discriminated, len(discriminatedKeys))
		}
	}
}

// TestHeadMemoPurgedOnBankChange: an accept set memoized by one bank is
// never served by the bank that replaces it. Each case memoizes the head
// of a probe the old bank answers without the type about to be added,
// then binds a grown bank from it, as a service's swap does, and asks
// for a fingerprint that shares only the head: the added type must be
// among its matches, as it is for a bank with no cache at all.
func TestHeadMemoPurgedOnBankChange(t *testing.T) {
	samples := parallelSamples()
	added := samples["plug-b"]
	delete(samples, "plug-b")
	cfg := fastConfig(1)
	cfg.CacheSize = 64

	// The reference: the grown bank, never cached.
	ref, err := Train(samples, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err = ref.WithType("plug-b", added)
	if err != nil {
		t.Fatal(err)
	}
	var probe fingerprint.Fingerprint
	found := false
	for _, fp := range synthType([]float64{100, 110}, 40, 12, 102) {
		if slices.Contains(ref.Identify(fp).Matches, "plug-b") && len(fp.F) >= 2 && fp.F[0] != fp.F[len(fp.F)-1] {
			probe, found = fp, true
			break
		}
	}
	if !found {
		t.Fatal("no probe the grown bank matches to plug-b; test setup drifted")
	}
	variants := sameHeadVariants(t, probe, 3)

	// warm trains the small bank and memoizes the probe's head in it.
	warm := func(t *testing.T) *Identifier {
		t.Helper()
		id, err := Train(samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(id.Identify(probe).Matches, "plug-b") {
			t.Fatal("small bank already knows plug-b")
		}
		if hits, _ := id.Cache().HeadStats(); hits != 0 {
			t.Fatal("first sighting of a head was a memo hit")
		}
		id.Identify(variants[0])
		if hits, _ := id.Cache().HeadStats(); hits != 1 {
			t.Fatalf("head not memoized: %d head hits after a same-head probe", hits)
		}
		return id
	}
	check := func(t *testing.T, id *Identifier) {
		t.Helper()
		for _, fp := range append([]fingerprint.Fingerprint{probe}, variants...) {
			got, want := semantic(id.Identify(fp)), semantic(ref.Identify(fp))
			if !slices.Contains(got.Matches, "plug-b") || !reflect.DeepEqual(got, want) {
				t.Fatalf("stale accept set served: %+v, uncached bank says %+v", got, want)
			}
		}
	}

	// grow builds the grown bank from id and binds it from id.
	grow := func(t *testing.T, id *Identifier) *Identifier {
		t.Helper()
		grown, err := id.WithType("plug-b", added)
		if err != nil {
			t.Fatal(err)
		}
		grown.AdoptRuntime(id)
		return grown
	}

	t.Run("WithType", func(t *testing.T) {
		id := warm(t)
		check(t, grow(t, id))
		// The warm bank itself never changed: it still knows no plug-b
		// and answers from its memo.
		if id.NumTypes() != len(samples) {
			t.Fatalf("WithType changed its receiver: %d types, want %d", id.NumTypes(), len(samples))
		}
		id.Identify(variants[1])
		if hits, _ := id.Cache().HeadStats(); hits != 2 {
			t.Fatalf("warm bank's memo: %d head hits, want 2", hits)
		}
	})
	t.Run("AdoptRuntime", func(t *testing.T) {
		// An independently built bank replaces the warm one.
		grown, err := Train(samples, fastConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if grown, err = grown.WithType("plug-b", added); err != nil {
			t.Fatal(err)
		}
		grown.AdoptRuntime(warm(t))
		check(t, grown)
	})
	t.Run("ApplyRuntime", func(t *testing.T) {
		id := warm(t)
		if err := id.ApplyRuntime(1, 64); err != nil {
			t.Fatal(err)
		}
		id.Identify(variants[1])
		if hits, misses := id.Cache().HeadStats(); hits != 0 || misses != 1 {
			t.Fatalf("ApplyRuntime kept the head memo: %d hits, %d misses on the first lookup after", hits, misses)
		}
		check(t, grow(t, id))
	})
}

// TestHeadMemoBounded: the memo never holds more heads than the cache's
// capacity — nor more accept-set words than that many heads need — and
// eviction costs nothing in answers.
func TestHeadMemoBounded(t *testing.T) {
	const capacity = 5
	cfg := fastConfig(1)
	cfg.CacheSize = capacity
	id, err := Train(parallelSamples(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Train(parallelSamples(), fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	probes := parallelProbes()
	heads := make(map[fingerprint.Head]struct{})
	for _, fp := range probes {
		heads[fp.F.Head()] = struct{}{}
	}
	if len(heads) <= 2*capacity {
		t.Fatalf("only %d distinct heads: the bound is unexercised", len(heads))
	}
	c := id.Cache()
	for pass := 0; pass < 2; pass++ {
		for i, fp := range probes {
			if got, want := semantic(id.Identify(fp)), semantic(plain.Identify(fp)); !reflect.DeepEqual(got, want) {
				t.Fatalf("probe %d: %+v, uncached %+v", i, got, want)
			}
			c.mu.Lock()
			n, words := len(c.heads), len(c.accepts)
			c.mu.Unlock()
			if n > capacity || words > capacity*((len(id.bank)+63)/64) {
				t.Fatalf("probe %d: memo holds %d heads in %d words, capacity %d", i, n, words, capacity)
			}
		}
	}
	if n := len(c.heads); n != capacity {
		t.Errorf("memo holds %d heads after %d distinct ones, want it full at %d", n, len(heads), capacity)
	}
}

// TestHeadHitReturnsIndependentCopies: a Result built from a memoized
// accept set shares nothing with the table — scribbling on one answer
// cannot reach the next.
func TestHeadHitReturnsIndependentCopies(t *testing.T) {
	id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, CacheSize: 64})
	probe := discriminatingProbe(t, id)
	variants := sameHeadVariants(t, probe, 2)
	want := semantic(id.Identify(variants[0])) // head hit
	a := id.Identify(probe)                    // full-key hit
	b := id.Identify(variants[0])              // full-key hit
	for _, r := range []Result{a, b} {
		for i := range r.Matches {
			r.Matches[i] = "CORRUPTED"
		}
		for k := range r.Scores {
			r.Scores[k] = -1
		}
	}
	headHits0, _ := id.Cache().HeadStats()
	_, misses0 := id.Cache().Stats()
	got := id.Identify(variants[1]) // full-key miss, head hit
	headHits, _ := id.Cache().HeadStats()
	if _, misses := id.Cache().Stats(); headHits != headHits0+1 || misses != misses0+1 {
		t.Fatalf("%d head hits and %d full-key misses, want 1 and 1", headHits-headHits0, misses-misses0)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || slices.Contains(got.Matches, "CORRUPTED") {
		t.Errorf("head hit returned Matches %v, want %v", got.Matches, want.Matches)
	}
	for k, s := range got.Scores {
		if s == -1 {
			t.Errorf("head hit returned a scribbled score for %q", k)
		}
	}
}

// TestHeadHitAllocatesOnlyThePut bounds the head-hit path: a full-key
// miss answered from the head memo allocates what storing its Result
// under the full key allocates and nothing else — the head lookup and
// the copy-out of the accept set add none. In this regime (a full
// cache) the put allocates nothing either: it reuses the evicted slot's
// Matches array and Scores map.
func TestHeadHitAllocatesOnlyThePut(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	id, cycle := headHitCycle(t)
	var res Result
	i := 0
	identify := func() {
		id.IdentifyInto(cycle[i%len(cycle)], &res)
		i++
	}
	for range cycle {
		identify()
	}
	hits0, _ := id.Cache().Stats()
	headHits0, _ := id.Cache().HeadStats()

	// What put alone allocates in the same regime: a full cache, a key
	// it does not hold, the same Result.
	c := NewIdentifyCache(2)
	keys := make([]fingerprint.Key, len(cycle))
	for k := range cycle {
		keys[k] = cycle[k].CanonicalKey()
	}
	j := 0
	put := func() {
		c.put(keys[j%len(keys)], res)
		j++
	}
	for range keys {
		put()
	}
	if putAllocs := testing.AllocsPerRun(100, put); putAllocs != 0 {
		t.Errorf("put into a full cache: %.1f allocs/op, want 0", putAllocs)
	}
	testutil.AssertZeroAllocs(t, "IdentifyInto/head-hit", identify)

	hits, _ := id.Cache().Stats()
	headHits, headMisses := id.Cache().HeadStats()
	if hits != hits0 || headMisses != 1 || headHits <= headHits0 {
		t.Fatalf("the measured calls were not all full-key misses answered by the head memo: %d full-key hits, %d head hits, %d head misses",
			hits-hits0, headHits-headHits0, headMisses)
	}
}

// headHitCycle returns an identifier whose full-key cache holds two
// entries and four discriminating probes with one head and four keys:
// cycled, every call misses the full key (LRU, a cycle longer than the
// capacity) and, after the first, hits the head memo.
func headHitCycle(t testing.TB) (*Identifier, []fingerprint.Fingerprint) {
	t.Helper()
	id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, CacheSize: 2})
	probe := discriminatingProbe(t, id)
	if err := id.ApplyRuntime(0, 2); err != nil { // drop what finding the probe cached
		t.Fatal(err)
	}
	return id, append(sameHeadVariants(t, probe, 3), probe)
}

// BenchmarkIdentifyHeadHit is the path a device's second and later
// captures take: the full key misses, the head memo supplies the accept
// set, discrimination runs, the Result is stored under the full key.
func BenchmarkIdentifyHeadHit(b *testing.B) {
	id, cycle := headHitCycle(b)
	var res Result
	for _, fp := range cycle {
		id.IdentifyInto(fp, &res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.IdentifyInto(cycle[i%len(cycle)], &res)
	}
	b.StopTimer()
	if hits, _ := id.Cache().Stats(); hits != 0 {
		b.Fatalf("%d full-key hits: the benchmark is not timing the head-hit path", hits)
	}
	if _, misses := id.Cache().HeadStats(); misses != 1 {
		b.Fatalf("%d head misses, want only the first sighting", misses)
	}
}

// TestMetricsRecordOnlyWorkDone: the stage series of the registry count
// work that ran. One miss, one head hit and eight full-key hits of a
// discriminating probe are ten identifications, of which one ran the
// forests and two ran discrimination; a hit adds nothing to the stage
// histograms or the edit-distance counter.
func TestMetricsRecordOnlyWorkDone(t *testing.T) {
	id := oracleIdentifier(t, Config{Seed: 7, NegativeRatio: 4, CacheSize: 64})
	probe := discriminatingProbe(t, id)
	variant := sameHeadVariants(t, probe, 1)[0]
	if err := id.ApplyRuntime(0, 64); err != nil { // drop what finding the probe cached
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	id.SetMetrics(NewMetrics(reg))

	miss := id.Identify(probe)
	headHit := id.Identify(variant)
	if !miss.Discriminated || !headHit.Discriminated {
		t.Fatal("probes did not discriminate; test setup drifted")
	}
	for i := 0; i < 8; i++ {
		id.Identify(probe)
	}

	snap := reg.Snapshot()
	for _, tt := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"core_identifications_total", nil, 10},
		{"core_match_count_count", nil, 10},
		{"core_identify_unknown_total", nil, 0},
		{"core_classify_seconds_count", nil, 1},
		{"core_discriminate_seconds_count", nil, 2},
		{"core_edit_distances_total", nil, float64(miss.EditDistances + headHit.EditDistances)},
		{"core_identify_cache_total", []string{"outcome", "miss"}, 1},
		{"core_identify_cache_total", []string{"outcome", "head_hit"}, 1},
		{"core_identify_cache_total", []string{"outcome", "hit"}, 8},
	} {
		if got := snap.Value(tt.name, tt.kv...); got != tt.want {
			t.Errorf("%s%v = %v, want %v", tt.name, tt.kv, got, tt.want)
		}
	}
	if hits, misses := id.Cache().Stats(); hits != 8 || misses != 2 {
		t.Errorf("Stats() = %d hits, %d misses; its meaning is the full key: want 8, 2", hits, misses)
	}
	if hits, misses := id.Cache().HeadStats(); hits != 9 || misses != 1 {
		t.Errorf("HeadStats() = %d hits, %d misses; every identification asks the memo first: want 9, 1", hits, misses)
	}
}

// TestHeadDecidedAnswersSkipTheFullKey: on the benchmark's working set —
// the 27-type reference bank and one probe per distinct head — a probe
// with zero or one match is answered from its accept set alone, so only
// probes that several classifiers accept ask the full key. A first pass
// answers like the uncached bank; a second runs neither the forests nor
// discrimination, and the full key answers every discriminated probe.
func TestHeadDecidedAnswersSkipTheFullKey(t *testing.T) {
	id, probes := referenceBank(t)
	want := make([]Result, len(probes))
	multi := 0
	for i, fp := range probes {
		want[i] = semantic(id.Identify(fp))
		if len(want[i].Matches) > 1 {
			multi++
		}
	}
	if multi == 0 || multi == len(probes) {
		t.Fatalf("%d of %d probes match several types: both kinds are needed", multi, len(probes))
	}
	if err := id.ApplyRuntime(0, DefaultCacheSize); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	id.SetMetrics(NewMetrics(reg))
	c := id.Cache()

	for i, fp := range probes {
		if got := semantic(id.Identify(fp)); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("pass 1, probe %d: cached answer differs:\n  cached: %+v\n  plain:  %+v", i, got, want[i])
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != uint64(multi) {
		t.Fatalf("pass 1: %d full-key hits, %d misses; want 0 and one per multi-match probe (%d)", hits, misses, multi)
	}
	if n := c.Len(); n != multi {
		t.Errorf("pass 1: %d full-key entries, want %d", n, multi)
	}

	classified := reg.Snapshot().Value("core_classify_seconds_count")
	discriminations := reg.Snapshot().Value("core_discriminate_seconds_count")
	for i, fp := range probes {
		if got := semantic(id.Identify(fp)); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("pass 2, probe %d: cached answer differs:\n  cached: %+v\n  plain:  %+v", i, got, want[i])
		}
	}
	snap := reg.Snapshot()
	if n := snap.Value("core_classify_seconds_count") - classified; n != 0 {
		t.Errorf("pass 2 ran the forests %v times, want 0", n)
	}
	if n := snap.Value("core_discriminate_seconds_count") - discriminations; n != 0 {
		t.Errorf("pass 2 ran discrimination %v times, want 0", n)
	}
	if hits, misses := c.Stats(); hits != uint64(multi) || misses != uint64(multi) {
		t.Errorf("after pass 2: %d full-key hits, %d misses; want %d and %d", hits, misses, multi, multi)
	}
	if hits, misses := c.HeadStats(); hits != uint64(len(probes)) || misses != uint64(len(probes)) {
		t.Errorf("after pass 2: %d head hits, %d misses; want %d and %d", hits, misses, len(probes), len(probes))
	}
}

// BenchmarkIdentifyHeadDecided is the answer of most identifications on
// the reference working set: a replayed single-match probe of the
// 27-type bank, answered from the accept set the head memo holds — no
// forest, no full key, no discrimination.
func BenchmarkIdentifyHeadDecided(b *testing.B) {
	id, probes := referenceBank(b)
	var singles []fingerprint.Fingerprint
	for _, fp := range probes {
		if len(id.Identify(fp).Matches) == 1 {
			singles = append(singles, fp)
		}
	}
	if err := id.ApplyRuntime(0, DefaultCacheSize); err != nil {
		b.Fatal(err)
	}
	var res Result
	for _, fp := range singles {
		id.IdentifyInto(fp, &res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.IdentifyInto(singles[i%len(singles)], &res)
	}
	b.StopTimer()
	hits, misses := id.Cache().Stats()
	if _, headMisses := id.Cache().HeadStats(); hits+misses != 0 || headMisses != uint64(len(singles)) {
		b.Fatalf("%d full-key lookups, %d head misses: the benchmark is not timing head-decided answers", hits+misses, headMisses)
	}
}
