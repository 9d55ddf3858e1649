// Package core implements IoT Sentinel's device-type identification
// pipeline (Sect. IV-B): a bank of one-vs-rest Random Forest classifiers
// (one per device-type) over the fixed-size fingerprint F′, followed by
// Damerau-Levenshtein edit-distance discrimination over the full
// fingerprint F when several classifiers accept.
//
// Parallelism lives where the work items are independent and coarse:
// Train fits the per-type classifiers concurrently and IdentifyBatch
// pipelines many fingerprints at once, both bit-for-bit deterministic
// with their sequential counterparts (see parallel.go). One
// identification scans the bank on the calling goroutine.
//
// With a cache attached (Config.CacheSize), an identification takes its
// accept set from the head memo when the fingerprint's head was
// classified before. A fingerprint that zero or one classifier accepts
// is answered from that set alone; only one that several accept
// computes the canonical key of F, to reuse or store the answer its
// discrimination produced (see IdentifyCache).
//
// A bank is built, never changed: Train, LoadIdentifier and WithType
// are the only ways to make one, and adding a type builds the next bank
// beside the old one. Only a bank's runtime binding — worker bound,
// cache, metrics — is ever swapped (ApplyRuntime, SetMetrics,
// AdoptRuntime).
package core

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/editdist"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/ml/rf"
)

// TypeID names a device-type: the combination of make, model and
// software version (e.g. "D-LinkCam").
type TypeID string

// Unknown is returned when no classifier accepts a fingerprint,
// signalling a previously unseen device-type.
const Unknown TypeID = ""

// Config controls identifier training. The zero value selects the
// paper's parameters.
type Config struct {
	// Forest configures the per-type Random Forest classifiers.
	Forest rf.Config
	// NegativeRatio is the number of negative samples per positive
	// sample when training a type's classifier (paper: 10).
	NegativeRatio int
	// RefFingerprints is the number of stored reference fingerprints
	// per type used by edit-distance discrimination (paper: 5).
	RefFingerprints int
	// AcceptThreshold is the minimum vote fraction for a classifier to
	// accept a fingerprint (default 0.5, i.e. majority vote).
	AcceptThreshold float64
	// Seed makes training and reference selection deterministic.
	Seed int64
	// Workers bounds the goroutines used by Train (one classifier per
	// work item) and IdentifyBatch (one fingerprint per work item): 0
	// selects runtime.GOMAXPROCS(0), 1 forces sequential execution,
	// negative values are rejected. A single Identify never fans out —
	// it scans the bank on the caller's goroutine. Workers is a runtime
	// concern, not model state, so it is excluded from serialization:
	// models trained at any worker count are identical.
	Workers int `json:"-"`
	// CacheSize, when positive, attaches an identification cache of
	// that many entries at each level (see IdentifyCache): probes whose
	// head (fingerprint.Head, all the forests read) was already
	// classified skip the classifier bank, and probes whose discriminated
	// answer is stored under their canonical fingerprint hash skip
	// discrimination too. 0 disables both levels. Like Workers, the
	// cache is a runtime concern with no effect on answers, so it is
	// excluded from serialization.
	CacheSize int `json:"-"`
	// DisableDiscrimination skips the edit-distance tie-break and
	// resolves multi-matches by taking the first accepted type in
	// sorted order. It exists for the ablation study of the
	// discrimination stage and should stay false in production.
	DisableDiscrimination bool
}

func (c Config) normalize() (Config, error) {
	if c.Workers < 0 {
		return c, fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.NegativeRatio <= 0 {
		c.NegativeRatio = 10
	}
	if c.RefFingerprints <= 0 {
		c.RefFingerprints = 5
	}
	if c.AcceptThreshold <= 0 {
		c.AcceptThreshold = 0.5
	}
	return c, nil
}

// typeModel is the per-type classifier plus its discrimination
// references. A typeModel is immutable once built, so banks share them.
type typeModel struct {
	forest *rf.Forest
	refs   *editdist.RefSet
}

// Identifier is a trained device-type identification pipeline. The
// "one classifier per device-type" design lets WithType add a type
// without retraining the existing classifiers.
//
// An Identifier is a value: nothing writes its model state after Train,
// LoadIdentifier or WithType returns, so identifications and the
// read-only accessors run from any number of goroutines without a lock.
// The one thing that changes on a bank in service is its runtime
// binding, replaced whole by an atomic store.
type Identifier struct {
	// cfg is the model configuration. Its runtime fields, Workers and
	// CacheSize, are read once, by Train, into the binding.
	cfg    Config
	models map[TypeID]*typeModel
	// pool is each type's training fingerprints, kept for the forests
	// WithType trains later: F alone, 8 B a row. A forest reads F′,
	// which Train takes from its caller's values and WithType derives
	// for the rows it draws (see rowSource).
	pool map[TypeID][]fingerprint.F
	// types is the sorted type list and bank the models in that order
	// (see reindex), so the per-identification hot path neither re-sorts
	// the bank nor hashes type names: a bank index names a type, its
	// model and its bit in an accept set.
	types []TypeID
	bank  []*typeModel
	// compiled is the bank's forests as the one-pass scan every
	// first-seen head pays for (rf.Bank); reindex builds it beside bank.
	// Derived, never serialized.
	compiled *rf.Bank
	// rt is the runtime binding; nil reads as unbound (see binding).
	rt atomic.Pointer[runtimeBinding]
	// scratch pools per-identification working memory (the accept set,
	// the derived F′) so the steady-state hot path does not allocate.
	scratch sync.Pool
}

// runtimeBinding is everything an identification uses that is not model
// state. A binding never changes once stored: ApplyRuntime, SetMetrics
// and AdoptRuntime store a new one, and each identification loads the
// pointer once, so it runs against one cache and one metrics bundle
// from start to end.
type runtimeBinding struct {
	// workers bounds IdentifyBatch's goroutines; 0 selects
	// runtime.GOMAXPROCS(0).
	workers int
	// cache, when non-nil, short-circuits the bank scan of
	// identifications whose head was already classified, and the
	// discrimination of those whose canonical fingerprint hash was
	// already discriminated. It is internally synchronized and belongs
	// to this bank alone: every binding that attaches one makes it.
	cache *IdentifyCache
	// metrics, when non-nil, receives one observation per
	// identification; updates are atomic adds.
	metrics *Metrics
}

// unbound is the binding of a bank never bound: default workers, no
// cache, no metrics.
var unbound runtimeBinding

// binding returns the bank's current runtime binding.
func (id *Identifier) binding() *runtimeBinding {
	if rt := id.rt.Load(); rt != nil {
		return rt
	}
	return &unbound
}

// rebind stores a copy of the binding with edit applied, retrying when
// another store landed between the load and its own, so concurrent
// ApplyRuntime and SetMetrics calls never undo each other.
func (id *Identifier) rebind(edit func(*runtimeBinding)) {
	for {
		old := id.rt.Load()
		var next runtimeBinding
		if old != nil {
			next = *old
		}
		edit(&next)
		if id.rt.CompareAndSwap(old, &next) {
			return
		}
	}
}

// identifyScratch is the reusable working memory of one identification.
type identifyScratch struct {
	// accepted is the accept set: bit i is set when bank[i] accepted.
	// matched lists the same bank indices in ascending order.
	accepted []uint64
	matched  []int
	// fprime is F′ derived from the probe's F. The bank never reads a
	// probe's own FPrime field: the cache keys cover F alone, so what
	// the forests see must be a function of F.
	fprime fingerprint.FPrime
	// words is the compiled scan's bit-vector (rf.Bank.Scan).
	words []uint64
}

// acceptSet returns the scratch accept set sized for n types, cleared.
func (sc *identifyScratch) acceptSet(n int) []uint64 {
	words := (n + 63) / 64
	if cap(sc.accepted) < words {
		sc.accepted = make([]uint64, words)
	}
	sc.accepted = sc.accepted[:words]
	clear(sc.accepted)
	return sc.accepted
}

// setMatched lists the bank indices of an accept set, in canonical
// (ascending) order.
func (sc *identifyScratch) setMatched(accepted []uint64) []int {
	sc.matched = sc.matched[:0]
	for w, word := range accepted {
		for ; word != 0; word &= word - 1 {
			sc.matched = append(sc.matched, w*64+bits.TrailingZeros64(word))
		}
	}
	return sc.matched
}

func (id *Identifier) getScratch() *identifyScratch {
	if sc, ok := id.scratch.Get().(*identifyScratch); ok {
		return sc
	}
	return &identifyScratch{}
}

// Train builds one classifier per device-type from labelled
// fingerprints, fanning the per-type training out across Config.Workers
// goroutines. Every type needs at least one fingerprint, and at least
// two types are required (classifiers need negatives).
func Train(samples map[TypeID][]fingerprint.Fingerprint, cfg Config) (*Identifier, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if len(samples) < 2 {
		return nil, fmt.Errorf("core: need fingerprints for at least 2 types, got %d", len(samples))
	}
	id := &Identifier{
		cfg:    cfg,
		models: make(map[TypeID]*typeModel, len(samples)),
		pool:   make(map[TypeID][]fingerprint.F, len(samples)),
	}
	for t, fps := range samples {
		if len(fps) == 0 {
			return nil, fmt.Errorf("core: type %q has no fingerprints", t)
		}
		id.pool[t] = poolOf(fps)
	}
	types := sortedKeys(id.pool)
	// The forests train on the caller's F′, read in place while Train
	// runs: a caller that altered F′ (the fingerprint-length ablation
	// zeroes its tail) gets forests of what it passed.
	rows := func(t TypeID, i int) []float64 { return samples[t][i].FPrime[:] }
	// Per-type training is independent (hash-derived seeds, read-only
	// pool and samples), so the bank trains concurrently; results merge
	// into the model map in canonical order afterwards.
	built := make([]*typeModel, len(types))
	err = runIndexed(workerBound(cfg.Workers), len(types), func(i int) error {
		m, err := id.buildModel(types[i], rows)
		built[i] = m
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, t := range types {
		id.models[t] = built[i]
	}
	id.reindex()
	rt := &runtimeBinding{workers: cfg.Workers}
	if cfg.CacheSize > 0 {
		rt.cache = NewIdentifyCache(cfg.CacheSize)
	}
	id.rt.Store(rt)
	return id, nil
}

// reindex builds types (sorted), bank (the models in that order) and
// compiled (their forests, for class 1 at the configured threshold):
// the last step of building a bank, before anyone else sees it.
func (id *Identifier) reindex() {
	id.types = sortedKeys(id.pool)
	id.bank = make([]*typeModel, len(id.types))
	forests := make([]*rf.Forest, len(id.types))
	for i, t := range id.types {
		id.bank[i] = id.models[t]
		forests[i] = id.bank[i].forest
	}
	var err error
	id.compiled, err = rf.CompileBank(forests, 1, id.cfg.AcceptThreshold, fingerprint.FPrimeLen)
	if err != nil {
		// Training yields class 1 and splits inside F′; LoadIdentifier
		// checked loaded forests for both. Only a bug gets here.
		panic("core: " + err.Error())
	}
}

// poolOf is the pool entry of fps: their F, sharing the caller's rows.
func poolOf(fps []fingerprint.Fingerprint) []fingerprint.F {
	out := make([]fingerprint.F, len(fps))
	for i := range fps {
		out[i] = fps[i].F
	}
	return out
}

func sortedKeys(m map[TypeID][]fingerprint.F) []TypeID {
	out := make([]TypeID, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Types returns the known device-types in sorted order.
func (id *Identifier) Types() []TypeID {
	return append([]TypeID(nil), id.types...)
}

// NumTypes returns the number of known device-types.
func (id *Identifier) NumTypes() int {
	return len(id.types)
}

// Workers reports the resolved worker bound of IdentifyBatch.
func (id *Identifier) Workers() int {
	return workerBound(id.binding().workers)
}

// WithType returns a new bank: this one plus a classifier for t, trained
// on fps — the incremental-learning property of the
// one-classifier-per-type design. The existing classifiers and training
// pool are shared, not copied or retrained, and the receiver is left as
// it was, so it keeps serving while the next bank trains. The new bank
// is unbound, as a loaded one is: default workers, no cache, no metrics;
// whoever puts it into service binds it (AdoptRuntime, ApplyRuntime).
func (id *Identifier) WithType(t TypeID, fps []fingerprint.Fingerprint) (*Identifier, error) {
	if len(fps) == 0 {
		return nil, fmt.Errorf("core: type %q has no fingerprints", t)
	}
	if _, ok := id.pool[t]; ok {
		return nil, fmt.Errorf("core: type %q already trained", t)
	}
	next := &Identifier{cfg: id.cfg, models: maps.Clone(id.models), pool: maps.Clone(id.pool)}
	next.pool[t] = poolOf(fps)
	// t's own rows are the caller's F′; a negative drawn from the pool
	// has its F′ derived from its F, which is what Train read for it.
	rows := func(ot TypeID, i int) []float64 {
		if ot == t {
			return fps[i].FPrime[:]
		}
		row := new(fingerprint.FPrime)
		h := next.pool[ot][i].Head()
		h.Prime(row)
		return row[:]
	}
	m, err := next.buildModel(t, rows)
	if err != nil {
		return nil, err
	}
	next.models[t] = m
	next.reindex()
	return next, nil
}

// ApplyRuntime re-binds the runtime-only configuration — the worker
// bound and the identification cache — keeping the metrics bundle.
// Workers and CacheSize are deliberately excluded from serialization
// (models trained at any worker count are identical, and cached answers
// must not outlive the bank that produced them), so a loaded identifier
// has the *default* fan-out and no cache at all. A boot path that
// serves a loaded bank — warm boot, a model file handed to iotsspd —
// calls ApplyRuntime after LoadIdentifier, with cacheSize 0 keeping the
// cache disabled; a bank that replaces a serving one takes them from it
// (AdoptRuntime). The cache attached is always a fresh, empty one.
func (id *Identifier) ApplyRuntime(workers, cacheSize int) error {
	if workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", workers)
	}
	if cacheSize < 0 {
		return fmt.Errorf("core: CacheSize must be >= 0, got %d", cacheSize)
	}
	var cache *IdentifyCache
	if cacheSize > 0 {
		cache = NewIdentifyCache(cacheSize)
	}
	id.rebind(func(rt *runtimeBinding) { rt.workers, rt.cache = workers, cache })
	return nil
}

// AdoptRuntime binds onto id everything a serving bank holds that is not
// model state, taken from the bank it succeeds: from's worker bound, its
// cache size — as a fresh, empty cache, never from's own, whose entries
// answer for from's bank — and its metrics bundle, shared so the counter
// series continue across the hand-over. iotssp.Service's bank swap goes
// through it.
func (id *Identifier) AdoptRuntime(from *Identifier) {
	rt := *from.binding()
	if rt.cache != nil {
		rt.cache = NewIdentifyCache(rt.cache.cap)
	}
	id.rt.Store(&rt)
}

// Cache returns the attached identification cache (nil when caching is
// disabled).
func (id *Identifier) Cache() *IdentifyCache {
	return id.binding().cache
}

// rowSource returns the F′ row of the i-th pool fingerprint of type t,
// for the duration of one buildModel.
type rowSource func(t TypeID, i int) []float64

// poolRef names one pool fingerprint: type t's i-th.
type poolRef struct {
	t TypeID
	i int
}

// buildModel fits the one-vs-rest classifier for t: all of t's
// fingerprints as the positive class, and NegativeRatio×n fingerprints
// sampled from the other types as the negative class, each row's F′
// read from rows. It runs while the bank is being built, before anyone
// else sees the pool; the RNG is derived from the top-level seed by
// type-ID hash, so the result depends only on (seed, t, pool contents,
// rows) — never on training order or concurrency.
func (id *Identifier) buildModel(t TypeID, rows rowSource) (*typeModel, error) {
	rng := rand.New(rand.NewSource(typeSeed(id.cfg.Seed, t)))
	pos := id.pool[t]
	// Build the negative pool in sorted type order: map iteration
	// order would make the negative subsample nondeterministic.
	var negPool []poolRef
	for _, ot := range sortedKeys(id.pool) {
		if ot == t {
			continue
		}
		for i := range id.pool[ot] {
			negPool = append(negPool, poolRef{ot, i})
		}
	}
	if len(negPool) == 0 {
		return nil, fmt.Errorf("core: no negative samples available for type %q", t)
	}
	nNeg := id.cfg.NegativeRatio * len(pos)
	if nNeg > len(negPool) {
		nNeg = len(negPool)
	}
	// Deterministic subsample of the negative pool.
	perm := rng.Perm(len(negPool))
	x := make([][]float64, 0, len(pos)+nNeg)
	y := make([]int, 0, len(pos)+nNeg)
	for i := range pos {
		x = append(x, rows(t, i))
		y = append(y, 1)
	}
	for _, pi := range perm[:nNeg] {
		x = append(x, rows(negPool[pi].t, negPool[pi].i))
		y = append(y, 0)
	}
	fcfg := id.cfg.Forest
	fcfg.Seed = rng.Int63()
	forest, err := rf.Train(x, y, fcfg)
	if err != nil {
		return nil, fmt.Errorf("core: train classifier for %q: %w", t, err)
	}
	// Reference fingerprints for discrimination: a random subset of
	// the positive class.
	refIdx := rng.Perm(len(pos))
	nRefs := id.cfg.RefFingerprints
	if nRefs > len(pos) {
		nRefs = len(pos)
	}
	refs := make([]fingerprint.F, 0, nRefs)
	for _, ri := range refIdx[:nRefs] {
		refs = append(refs, pos[ri])
	}
	return &typeModel{forest: forest, refs: editdist.NewRefSet(refs)}, nil
}

// Result reports the outcome of one identification.
type Result struct {
	// Type is the predicted device-type, or Unknown when every
	// classifier rejected the fingerprint.
	Type TypeID
	// Matches lists every type whose classifier accepted the
	// fingerprint, sorted.
	Matches []TypeID
	// Scores holds the per-candidate dissimilarity score in [0,
	// RefFingerprints] for every candidate whose discrimination scoring
	// ran to completion. Candidates that were abandoned early — the
	// budgeted scorer proved their sum could not beat the running best —
	// are absent; the winner's score is always present and always
	// exact. Scores is nil when discrimination did not run (it may be
	// an empty non-nil map when a Result is reused via IdentifyInto).
	Scores map[TypeID]float64
	// Discriminated reports whether the edit-distance step ran.
	Discriminated bool
	// EditDistances is the number of edit-distance computations started
	// (Table IV's "7 discriminations" average). A computation abandoned
	// by the early-exit bound still counts as started.
	EditDistances int
	// ClassifyTime and DiscriminateTime break down where time went.
	ClassifyTime     time.Duration
	DiscriminateTime time.Duration
}

// reset clears res for reuse, retaining the Matches backing array and
// the Scores map so a steady-state IdentifyInto loop does not allocate.
func (r *Result) reset() {
	r.Type = Unknown
	r.Matches = r.Matches[:0]
	if r.Scores != nil {
		clear(r.Scores)
	}
	r.Discriminated = false
	r.EditDistances = 0
	r.ClassifyTime = 0
	r.DiscriminateTime = 0
}

// Identify runs the two-stage pipeline on one fingerprint, on the
// calling goroutine.
func (id *Identifier) Identify(fp fingerprint.Fingerprint) Result {
	var res Result
	id.IdentifyInto(fp, &res)
	return res
}

// IdentifyInto is Identify writing its answer into *res, reusing res's
// Matches backing array and Scores map. A caller that keeps one Result
// per goroutine and loops IdentifyInto over probes identifies without
// allocating in the steady state. The answer is field-for-field
// identical to Identify's, except that a reused Scores map is cleared
// rather than set to nil when discrimination does not run.
func (id *Identifier) IdentifyInto(fp fingerprint.Fingerprint, res *Result) {
	id.identifyObserved(id.binding(), &fp, res)
}

// identifyObserved is the pipeline under one runtime binding: classify,
// then discriminate when several types accept, then the metrics
// observation. Every public identification path funnels through it so
// batch and single calls account — and cache — identically. The cache
// lookups are sound because rt's cache has only ever seen this bank,
// which never changes.
//
// Each cache level is keyed by exactly what its stage reads. The accept
// set is a function of F's head, so it comes from the head memo when
// that head was classified before. With zero or one match the answer is
// the accept set's, and no full key is computed. Discrimination reads
// all of F, so its answer is looked up, and stored, under the canonical
// key of F. Only fp.F is read — by both keys and by the bank — so a
// cached answer is the bank's answer for every fingerprint sharing the
// key, whatever its other fields hold.
func (id *Identifier) identifyObserved(rt *runtimeBinding, fp *fingerprint.Fingerprint, res *Result) {
	sc := id.getScratch()
	defer id.scratch.Put(sc)
	cache := rt.cache
	matched, classified := id.classify(fp.F, cache, sc, res)
	by := classified
	if len(matched) > 1 && !id.cfg.DisableDiscrimination {
		if cache == nil {
			id.discriminate(fp.F, matched, res)
		} else if key := fp.CanonicalKey(); cache.getInto(key, res) {
			by = byCache
		} else {
			id.discriminate(fp.F, matched, res)
			cache.put(key, *res)
		}
	}
	if cache != nil {
		rt.metrics.observeCache(by)
	}
	rt.metrics.observe(res, classified, by)
}

// classify resets res and fills its Matches from the accept set of f's
// head: the head memo's when cache holds that head (byHeadMemo), the
// bank's otherwise (byBank). It returns the matches' bank indices
// and sets res.Type unless discrimination has to choose among them.
func (id *Identifier) classify(f fingerprint.F, cache *IdentifyCache, sc *identifyScratch, res *Result) ([]int, answeredBy) {
	res.reset()
	start := time.Now()
	by := byBank
	head := f.Head()
	accepted := sc.acceptSet(len(id.bank))
	if cache.getHead(&head, accepted) {
		by = byHeadMemo
	} else {
		id.scanBank(&head, sc, accepted)
		cache.putHead(&head, accepted)
	}
	matched := sc.setMatched(accepted)
	for _, i := range matched {
		res.Matches = append(res.Matches, id.types[i])
	}
	res.ClassifyTime = time.Since(start)
	// With several matches and discrimination disabled, the first
	// accepted type in sorted order wins.
	if len(res.Matches) > 0 {
		res.Type = res.Matches[0]
	}
	return matched, by
}

// discriminate chooses among several matches by summed normalized edit
// distance to each candidate's reference fingerprints. Candidates are
// scored sequentially in canonical match order with the running best
// sum as each scorer's budget: a candidate that provably cannot beat
// the best is abandoned mid-scoring. The first candidate (and any new
// best) always completes exactly, and ties resolve to the earliest
// candidate — completed-equal and abandoned-at-the-bound candidates
// lose alike — so the winner and its score are bit-identical to
// exhaustive scoring.
func (id *Identifier) discriminate(f fingerprint.F, matched []int, res *Result) {
	start := time.Now()
	res.Discriminated = true
	if res.Scores == nil {
		res.Scores = make(map[TypeID]float64, len(res.Matches))
	}
	best := math.Inf(1)
	bestType := res.Matches[0]
	for _, i := range matched {
		sum, n, pruned := id.bank[i].refs.DistanceSumBounded(f, best)
		res.EditDistances += n
		if pruned {
			continue
		}
		t := id.types[i]
		res.Scores[t] = sum
		if sum < best {
			best, bestType = sum, t
		}
	}
	res.DiscriminateTime = time.Since(start)
	res.Type = bestType
}

// scanBank scores every classifier in the bank on the F′ of head and
// sets bit i of accepted when bank[i] accepts: one compiled scan, which
// decides exactly as bank[i].forest.AcceptSoft on that F′ would.
func (id *Identifier) scanBank(head *fingerprint.Head, sc *identifyScratch, accepted []uint64) {
	head.Prime(&sc.fprime)
	sc.words = id.compiled.Scan(sc.fprime[:], sc.words, accepted)
}

// IdentifyBatch runs the pipeline over many fingerprints at once,
// pipelining them across Config.Workers goroutines — the right call
// shape when several devices finish their setup phase together (a
// gateway draining its monitoring queue, or bulk evaluation); a goroutine
// gets at least minBatchPerWorker of them. Results are returned in input
// order and are element-wise identical to calling Identify on each.
func (id *Identifier) IdentifyBatch(fps []fingerprint.Fingerprint) []Result {
	if len(fps) == 0 {
		return nil
	}
	rt := id.binding()
	out := make([]Result, len(fps))
	workers := min(workerBound(rt.workers), len(fps)/minBatchPerWorker)
	forEachIndexed(workers, len(fps), func(i int) {
		id.identifyObserved(rt, &fps[i], &out[i])
	})
	return out
}

// ClassifyOnly runs only the classifier bank and returns the accepted
// types; used by the discrimination on/off ablation and by stage
// timing, so it always runs the forests: the head memo is neither read
// nor filled.
func (id *Identifier) ClassifyOnly(fp fingerprint.Fingerprint) []TypeID {
	sc := id.getScratch()
	defer id.scratch.Put(sc)
	head := fp.F.Head()
	accepted := sc.acceptSet(len(id.bank))
	id.scanBank(&head, sc, accepted)
	var out []TypeID
	for _, i := range sc.setMatched(accepted) {
		out = append(out, id.types[i])
	}
	return out
}

// FeatureImportance aggregates Gini feature importance across every
// type's classifier, returning one normalized weight per fingerprint
// dimension group: the 276 F′ dimensions are folded back onto the 23
// packet features of Table I (each feature appears once per packet
// slot).
func (id *Identifier) FeatureImportance() [features.Count]float64 {
	var out [features.Count]float64
	for _, m := range id.bank {
		imp := m.forest.FeatureImportance(fingerprint.FPrimeLen)
		for dim, w := range imp {
			out[dim%features.Count] += w
		}
	}
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}
