package core

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/testutil"
)

func trainedPair(t *testing.T, cacheSize int) (cached, plain *Identifier, probes []fingerprint.Fingerprint) {
	t.Helper()
	raw := devices.GenerateDataset(6, 42)
	ds := make(map[TypeID][]fingerprint.Fingerprint, len(raw))
	for k, v := range raw {
		ds[TypeID(k)] = v
	}
	cached, err := Train(ds, Config{Seed: 1, Workers: 1, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	plain, err = Train(ds, Config{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Probe with fresh captures (not the training set) plus exact
	// replays of training fingerprints, the case the cache exists for.
	probeRaw := devices.GenerateDataset(2, 777)
	for _, fps := range probeRaw {
		probes = append(probes, fps...)
	}
	for _, fps := range ds {
		probes = append(probes, fps[0])
	}
	return cached, plain, probes
}

// semantic strips the run-dependent timing fields so results can be
// compared for bit-identical answers.
func semantic(r Result) Result {
	r.ClassifyTime = 0
	r.DiscriminateTime = 0
	return r
}

// TestCacheDifferentialIdentical is the cache half of the ISSUE's
// differential guarantee: identification with the cache enabled —
// first pass (all misses) and second pass (all hits) — must be
// bit-identical to an uncached identifier in every semantic field.
func TestCacheDifferentialIdentical(t *testing.T) {
	cached, plain, probes := trainedPair(t, 1024)
	for i, fp := range probes {
		want := semantic(plain.Identify(fp))
		miss := semantic(cached.Identify(fp))
		if !reflect.DeepEqual(want, miss) {
			t.Fatalf("probe %d: cache-miss result differs:\n  cached: %+v\n  plain:  %+v", i, miss, want)
		}
		hit := semantic(cached.Identify(fp))
		if !reflect.DeepEqual(want, hit) {
			t.Fatalf("probe %d: cache-hit result differs:\n  cached: %+v\n  plain:  %+v", i, hit, want)
		}
	}
	// Some device profiles replay bit-identical setup sequences across
	// captures, so distinct probes can share a key — count unique keys
	// rather than probes. Every probe asks the head memo; only a
	// discriminated one asks the full key.
	heads := make(map[fingerprint.Head]struct{}, len(probes))
	keys := make(map[fingerprint.Key]struct{}, len(probes))
	discriminated := 0
	for _, fp := range probes {
		heads[fp.F.Head()] = struct{}{}
		if plain.Identify(fp).Discriminated {
			discriminated++
			keys[fp.CanonicalKey()] = struct{}{}
		}
	}
	if discriminated == 0 {
		t.Fatal("no probe was discriminated: the full key is unexercised")
	}
	for _, level := range []struct {
		name              string
		stats             func() (uint64, uint64)
		lookups, distinct int
	}{
		{"head memo", cached.Cache().HeadStats, 2 * len(probes), len(heads)},
		{"full key", cached.Cache().Stats, 2 * discriminated, len(keys)},
	} {
		hits, misses := level.stats()
		wantMisses := uint64(level.distinct)
		wantHits := uint64(level.lookups) - wantMisses
		if misses != wantMisses || hits != wantHits {
			t.Errorf("%s stats = %d hits / %d misses, want %d / %d",
				level.name, hits, misses, wantHits, wantMisses)
		}
	}
}

// discriminatedProbe returns a probe plain discriminates: the kind whose
// answer the full-key level stores.
func discriminatedProbe(t *testing.T, plain *Identifier, probes []fingerprint.Fingerprint) fingerprint.Fingerprint {
	t.Helper()
	for _, fp := range probes {
		if plain.Identify(fp).Discriminated {
			return fp
		}
	}
	t.Fatal("no probe was discriminated; test setup drifted")
	return fingerprint.Fingerprint{}
}

// cacheEntries returns how many entries both levels of c hold.
func cacheEntries(c *IdentifyCache) (full, heads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots), len(c.heads)
}

// TestCacheBatchIdentical: IdentifyBatch must cache exactly like
// repeated Identify calls.
func TestCacheBatchIdentical(t *testing.T) {
	cached, plain, probes := trainedPair(t, 1024)
	wantAll := plain.IdentifyBatch(probes)
	gotAll := cached.IdentifyBatch(probes) // mix of misses and replays
	again := cached.IdentifyBatch(probes)  // all hits
	for i := range probes {
		if !reflect.DeepEqual(semantic(wantAll[i]), semantic(gotAll[i])) {
			t.Fatalf("batch probe %d: first-pass result differs", i)
		}
		if !reflect.DeepEqual(semantic(wantAll[i]), semantic(again[i])) {
			t.Fatalf("batch probe %d: hit-pass result differs", i)
		}
	}
}

func TestCacheHitReturnsIndependentCopies(t *testing.T) {
	cached, _, probes := trainedPair(t, 1024)
	var probe fingerprint.Fingerprint
	found := false
	for _, fp := range probes {
		if r := cached.Identify(fp); len(r.Matches) > 0 {
			probe, found = fp, true
			break
		}
	}
	if !found {
		t.Skip("no probe produced matches")
	}
	a := cached.Identify(probe)
	a.Matches[0] = "CORRUPTED"
	for k := range a.Scores {
		a.Scores[k] = -1
	}
	b := cached.Identify(probe)
	if len(b.Matches) > 0 && b.Matches[0] == "CORRUPTED" {
		t.Error("cache hit aliases a previously returned Matches slice")
	}
	for _, s := range b.Scores {
		if s == -1 {
			t.Error("cache hit aliases a previously returned Scores map")
		}
	}
}

// TestCacheIgnoresHandBuiltFPrime is the structural half of cache
// soundness: the key covers F alone, so the bank must read F alone. A
// hand-built fingerprint carrying one device's F and another's F′ is
// answered as its F — identically with a cold cache, a cache warmed by
// the honest fingerprint, and no cache — and never as the device whose
// F′ it borrowed.
func TestCacheIgnoresHandBuiltFPrime(t *testing.T) {
	cached, plain, probes := trainedPair(t, 1024)
	checked := 0
	for i, honest := range probes {
		donor := probes[(i+len(probes)/2)%len(probes)]
		want := plain.Identify(honest)
		if reflect.DeepEqual(semantic(plain.Identify(donor)), semantic(want)) {
			continue // same answer either way: proves nothing
		}
		forged := honest
		forged.FPrime, forged.UniqueCount = donor.FPrime, donor.UniqueCount

		cold := cached.Identify(forged) // miss: the bank derives F′ from F
		// A fresh, empty cache, warmed with the honest twin.
		if err := cached.ApplyRuntime(1, 1024); err != nil {
			t.Fatal(err)
		}
		cached.Identify(honest)
		warm := cached.Identify(forged) // hit on the shared key
		for name, got := range map[string]Result{"uncached": plain.Identify(forged), "cold": cold, "warm": warm} {
			if !reflect.DeepEqual(semantic(got), semantic(want)) {
				t.Fatalf("probe %d %s: forged F′ changed the answer: %+v, want %+v", i, name, got, want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no probe pair with differing answers; soundness unexercised")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewIdentifyCache(2)
	keyOf := func(i int) fingerprint.Key {
		fp := fingerprint.Fingerprint{F: fingerprint.F{features.Packed(i)}}
		return fp.CanonicalKey()
	}
	c.put(keyOf(1), Result{Type: "a"})
	c.put(keyOf(2), Result{Type: "b"})
	if _, ok := c.get(keyOf(1)); !ok { // 1 becomes MRU
		t.Fatal("entry 1 missing")
	}
	c.put(keyOf(3), Result{Type: "c"}) // evicts 2 (LRU)
	if _, ok := c.get(keyOf(2)); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if _, ok := c.get(keyOf(1)); !ok {
		t.Error("MRU entry 1 evicted")
	}
	if _, ok := c.get(keyOf(3)); !ok {
		t.Error("fresh entry 3 missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestWithTypeStartsUnbound: the bank WithType builds is unbound, as a
// loaded one is — default workers, no cache, no metrics — however the
// bank it grew from is bound, and identifying on it touches neither the
// parent's cache nor its metrics.
func TestWithTypeStartsUnbound(t *testing.T) {
	cached, plain, probes := trainedPair(t, 1024)
	if err := cached.ApplyRuntime(2, 1024); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cached.SetMetrics(NewMetrics(reg))
	probe := discriminatedProbe(t, plain, probes)
	cached.Identify(probe)
	full, heads := cacheEntries(cached.Cache())
	if full == 0 || heads == 0 {
		t.Fatalf("cache holds %d full-key entries and %d heads after a discriminated identification", full, heads)
	}
	counted := reg.Counter("core_identifications_total", "").Value()
	var fps []fingerprint.Fingerprint
	for _, v := range devices.GenerateDataset(3, 9) {
		fps = v
		break
	}
	grown, err := cached.WithType("brand-new-type", fps)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Cache() != nil || grown.Metrics() != nil || grown.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("WithType bank bound: cache %v, metrics %v, %d workers", grown.Cache() != nil, grown.Metrics() != nil, grown.Workers())
	}
	grown.Identify(probe)
	grown.IdentifyBatch(probes)
	if f, h := cacheEntries(cached.Cache()); f != full || h != heads {
		t.Errorf("parent cache went from %d/%d to %d/%d entries", full, heads, f, h)
	}
	if got := reg.Counter("core_identifications_total", "").Value(); got != counted {
		t.Errorf("core_identifications_total = %d after identifying on the new bank, want %d", got, counted)
	}
}

// TestRuntimeRebindDropsWarmCache pins the stale-answer guard: the two
// ways a cache is attached after training — ApplyRuntime, and
// AdoptRuntime from the bank being replaced — attach a fresh, empty one,
// never a cache holding what some bank answered, which a bank swap could
// serve as results the new bank would never produce.
func TestRuntimeRebindDropsWarmCache(t *testing.T) {
	cached, plain, probes := trainedPair(t, 1024)
	cached.Identify(discriminatedProbe(t, plain, probes))
	warm := cached.Cache()
	if full, heads := cacheEntries(warm); full == 0 || heads == 0 {
		t.Fatalf("cache holds %d full-key entries and %d heads after a discriminated identification", full, heads)
	}
	fresh := func(c *IdentifyCache) bool {
		if c == nil || c == warm {
			return false
		}
		full, heads := cacheEntries(c)
		return full == 0 && heads == 0
	}
	plain.AdoptRuntime(cached)
	if c := plain.Cache(); !fresh(c) {
		t.Errorf("AdoptRuntime attached cache %p (the warm one is %p), want a fresh, empty one", c, warm)
	}
	if err := cached.ApplyRuntime(0, 1024); err != nil {
		t.Fatal(err)
	}
	if c := cached.Cache(); !fresh(c) {
		t.Errorf("ApplyRuntime attached cache %p (the warm one is %p), want a fresh, empty one", c, warm)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *IdentifyCache
	c.put(fingerprint.Key{}, Result{})
	if _, ok := c.get(fingerprint.Key{}); ok {
		t.Error("nil cache reported a hit")
	}
	if c.Len() != 0 {
		t.Error("nil cache has nonzero length")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("nil cache has nonzero stats")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewIdentifyCache(64)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				fp := fingerprint.Fingerprint{UniqueCount: (w*31 + i) % 100}
				key := fp.CanonicalKey()
				c.put(key, Result{Type: TypeID(fmt.Sprintf("t%d", i%7))})
				c.get(key)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if c.Len() > 64 {
		t.Errorf("cache exceeded its bound: %d entries", c.Len())
	}
}

// refLRU is the retired first level, a container/list LRU, kept as the
// reference the slab is held to. It stores only a result's Type.
type refLRU struct {
	cap                     int
	entries                 map[fingerprint.Key]*list.Element
	order                   *list.List // front = most recently used
	hits, misses, evictions int
}

type refEntry struct {
	key fingerprint.Key
	typ TypeID
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, entries: make(map[fingerprint.Key]*list.Element), order: list.New()}
}

func (r *refLRU) get(key fingerprint.Key) (TypeID, bool) {
	el, ok := r.entries[key]
	if !ok {
		r.misses++
		return "", false
	}
	r.hits++
	r.order.MoveToFront(el)
	return el.Value.(*refEntry).typ, true
}

func (r *refLRU) put(key fingerprint.Key, typ TypeID) {
	if el, ok := r.entries[key]; ok {
		el.Value.(*refEntry).typ = typ
		r.order.MoveToFront(el)
		return
	}
	if r.order.Len() >= r.cap {
		oldest := r.order.Back()
		r.order.Remove(oldest)
		delete(r.entries, oldest.Value.(*refEntry).key)
		r.evictions++
	}
	r.entries[key] = r.order.PushFront(&refEntry{key: key, typ: typ})
}

func (r *refLRU) keys() []fingerprint.Key {
	var out []fingerprint.Key
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*refEntry).key)
	}
	return out
}

// lruKeys walks the slab's links from most to least recently used.
func lruKeys(c *IdentifyCache) []fingerprint.Key {
	var out []fingerprint.Key
	for i := c.mru; i >= 0; i = c.slots[i].next {
		out = append(out, c.slots[i].key)
	}
	return out
}

// TestCacheMatchesListLRU drives the slab cache and the retired
// container/list LRU through one seeded sequence of gets and puts:
// every answer, the hit, miss and eviction counts and Len must agree
// after every step, and so must the full recency order.
func TestCacheMatchesListLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 4096} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c, ref := NewIdentifyCache(capacity), newRefLRU(capacity)
		keys := make([]fingerprint.Key, 2*capacity+3)
		for i := range keys {
			keys[i] = (&fingerprint.Fingerprint{F: fingerprint.F{features.Packed(i)}}).CanonicalKey()
		}
		evictions := 0
		for step := 0; step < 30000; step++ {
			key := keys[rng.Intn(len(keys))]
			switch {
			case rng.Intn(2) == 0:
				got, ok := c.get(key)
				want, wantOK := ref.get(key)
				if ok != wantOK || got.Type != want {
					t.Fatalf("cap %d step %d: get = (%q, %v), list LRU (%q, %v)", capacity, step, got.Type, ok, want, wantOK)
				}
			default:
				typ := TypeID(fmt.Sprintf("t%d", step))
				if _, resident := c.index[key]; !resident && c.Len() == capacity {
					evictions++
				}
				c.put(key, Result{Type: typ, Matches: []TypeID{typ}})
				ref.put(key, typ)
			}
			hits, misses := c.Stats()
			if int(hits) != ref.hits || int(misses) != ref.misses || evictions != ref.evictions || c.Len() != ref.order.Len() {
				t.Fatalf("cap %d step %d: %d hits, %d misses, %d evictions, Len %d; list LRU %d, %d, %d, %d",
					capacity, step, hits, misses, evictions, c.Len(), ref.hits, ref.misses, ref.evictions, ref.order.Len())
			}
			// Walking a large cache every step is quadratic: sample it.
			if step%(1+capacity/8) == 0 && !slices.Equal(lruKeys(c), ref.keys()) {
				t.Fatalf("cap %d step %d: recency order differs from the list LRU", capacity, step)
			}
		}
		if ref.evictions == 0 || ref.hits == 0 {
			t.Fatalf("cap %d: sequence made %d evictions, %d hits; nothing exercised", capacity, ref.evictions, ref.hits)
		}
	}
}

// TestCachePutAllocatesOnlyMatches pins what storing an undiscriminated
// answer costs: its Matches copy in a fresh slot, nothing in one reused
// by eviction — never a map for its empty Scores, which IdentifyInto
// leaves non-nil in a reused Result.
func TestCachePutAllocatesOnlyMatches(t *testing.T) {
	res := Result{Type: "a", Matches: []TypeID{"a"}, Scores: map[TypeID]float64{}}
	keys := make([]fingerprint.Key, 1000)
	for i := range keys {
		keys[i] = (&fingerprint.Fingerprint{UniqueCount: i}).CanonicalKey()
	}
	c := NewIdentifyCache(len(keys))
	i := 0
	testutil.AssertAllocs(t, "put/fresh slot", 1, func() { c.put(keys[i], res); i++ })
	c = NewIdentifyCache(2)
	for _, k := range keys[:2] {
		c.put(k, res)
	}
	testutil.AssertAllocs(t, "put/evicting", 0, func() { c.put(keys[i%len(keys)], res); i++ })
	if got, _ := c.get(keys[(i-1)%len(keys)]); got.Scores != nil {
		t.Errorf("undiscriminated answer came back with Scores %v, want nil", got.Scores)
	}
}
