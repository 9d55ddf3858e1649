package core

import (
	"iotsentinel/internal/obs"
)

// answeredBy names what produced an identification, and therefore which
// stages did work for it.
type answeredBy uint8

const (
	// byBank: the forests ran, then discrimination if it was needed.
	byBank answeredBy = iota
	// byHeadMemo: the accept set came from the cache's head memo;
	// discrimination, if it was needed, ran.
	byHeadMemo
	// byCache: a discriminated Result came from the full-key cache;
	// discrimination did not run.
	byCache
)

// Metrics is the identifier's instrumentation bundle: the Table IV
// cost split (classify vs discriminate latency, edit-distance count)
// plus the outcome distribution (match counts, unknown rate) that the
// paper's accuracy tables summarize offline. The stage series record
// work done — an answer served from a cache adds nothing to the stages
// it skipped — while the outcome series count every answer. All
// children are resolved at construction, so the per-identification cost
// is a handful of atomic adds; a nil *Metrics disables instrumentation
// entirely.
type Metrics struct {
	identifications *obs.Counter
	unknown         *obs.Counter
	editDistances   *obs.Counter
	classifySec     *obs.Histogram
	discriminateSec *obs.Histogram
	matchCount      *obs.Histogram
	// cache counts lookups by what answered them, indexed by answeredBy.
	cache [3]*obs.Counter
}

// NewMetrics registers the identifier metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		identifications: reg.Counter("core_identifications_total",
			"Device-type identifications performed."),
		unknown: reg.Counter("core_identify_unknown_total",
			"Identifications rejected by every classifier (unknown device-type)."),
		editDistances: reg.Counter("core_edit_distances_total",
			"Edit-distance computations performed by the discrimination stage (answers served from the cache add none)."),
		classifySec: reg.Histogram("core_classify_seconds",
			"Classifier-bank stage latency, for identifications whose forests ran.", nil),
		discriminateSec: reg.Histogram("core_discriminate_seconds",
			"Edit-distance discrimination stage latency, for identifications that ran it.", nil),
		matchCount: reg.Histogram("core_match_count",
			"Number of accepting classifiers per identification.", obs.CountBuckets),
	}
	lookups := reg.CounterVec("core_identify_cache_total",
		"Identification-cache lookups, by what answered: hit (a discriminated answer stored under the full key), head_hit (the accept set memoized for the head), miss (the forests ran).", "outcome")
	m.cache[byCache] = lookups.With("hit")
	m.cache[byHeadMemo] = lookups.With("head_hit")
	m.cache[byBank] = lookups.With("miss")
	return m
}

// observeCache records what answered one identification-cache lookup.
// Safe on a nil receiver.
func (m *Metrics) observeCache(by answeredBy) {
	if m != nil {
		m.cache[by].Inc()
	}
}

// observe records one identification: the outcome series always, the
// stage series only for the stages that ran — the forests when they
// classified it, discrimination unless the full key answered. Safe on a
// nil receiver.
func (m *Metrics) observe(res *Result, classified, by answeredBy) {
	if m == nil {
		return
	}
	m.identifications.Inc()
	if res.Type == Unknown {
		m.unknown.Inc()
	}
	m.matchCount.Observe(float64(len(res.Matches)))
	if classified == byBank {
		m.classifySec.ObserveDuration(res.ClassifyTime)
	}
	if res.Discriminated && by != byCache {
		m.editDistances.Add(uint64(res.EditDistances))
		m.discriminateSec.ObserveDuration(res.DiscriminateTime)
	}
}

// SetMetrics attaches (or, with nil, detaches) an instrumentation
// bundle to the identifier, keeping the rest of its runtime binding.
// Like the worker bound, metrics are a runtime concern with no effect on
// results and may be changed at any time.
func (id *Identifier) SetMetrics(m *Metrics) {
	id.rebind(func(rt *runtimeBinding) { rt.metrics = m })
}

// Metrics returns the attached instrumentation bundle, nil when
// detached. Banks that replace this one (hot reload, promotion) carry
// the bundle over so counter series continue across swaps.
func (id *Identifier) Metrics() *Metrics {
	return id.binding().metrics
}
