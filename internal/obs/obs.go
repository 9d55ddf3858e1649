// Package obs is the observability layer of the identification
// pipeline: lock-free counters, gauges and fixed-bucket latency
// histograms behind a named registry, exported in the Prometheus text
// format. The paper's cost model (Table IV) is a latency split across
// pipeline stages; obs makes that split — and the fail-closed machinery
// PR 2 added around it — visible on a running gateway instead of only
// in offline benchmarks.
//
// Design constraints, in order:
//
//   - The hot path (Identify, HandlePacket, the switch fast path) must
//     pay one atomic RMW per metric update: no locks, no allocation.
//   - Labeled metrics resolve their child once at wiring time; the
//     update itself is the same single atomic.
//   - A count its owner already keeps is exported with CounterFunc,
//     read when scraped: its hot path then writes no metric at all.
//   - Scrapes and test snapshots are read-only and may run concurrently
//     with updates; they see a near-point-in-time view (per-value
//     atomicity, no cross-metric transaction — the standard Prometheus
//     contract).
//
// The registry is explicit, not a process global: each daemon builds
// one and hands it to the components it wants instrumented, so tests
// get isolated registries for free and a nil metrics wire means "not
// instrumented" with zero overhead.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric families a Registry can hold.
type Kind int

// Metric kinds, matching the Prometheus TYPE names.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
	// kindCounterFunc is a counter whose values functions supply
	// (CounterFunc); it exports as a counter.
	kindCounterFunc
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter, kindCounterFunc:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing count. The zero value is ready
// to use, but counters are normally obtained from a Registry so they
// export.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, device
// counts, breaker state).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are chosen at
// registration and never change, so Observe is a binary search plus
// two atomic adds (bucket + count) and one CAS loop (the float sum).
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; equal values belong to
	// the bucket (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the Prometheus base
// unit for time.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the containing bucket, the same way Prometheus's
// histogram_quantile does. Samples in the open-ended +Inf bucket are
// reported as the highest finite bound: the estimate saturates rather
// than inventing a value. An empty histogram (or NaN q) has no
// quantiles and returns NaN — a fake 0 would read as a perfect p99 on
// a path that never ran.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total)
	var cum, lower float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n > 0 && cum+n >= rank {
			if i >= len(h.bounds) {
				return lower // +Inf bucket: saturate at the last bound
			}
			return lower + (h.bounds[i]-lower)*(rank-cum)/n
		}
		cum += n
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return lower
}

// DefLatencyBuckets spans 1µs–10s, wide enough for both the
// sub-millisecond classify path and multi-second backoff sleeps.
var DefLatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// CountBuckets suits small-integer distributions such as
// matches-per-identification.
var CountBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// SizeBuckets suits byte-size distributions (wire frames, model
// blobs): 64 B–64 MiB in powers of eight.
var SizeBuckets = []float64{
	64, 512, 4096, 32768, 262144, 2097152, 16777216, 67108864,
}

// family is one named metric with a fixed label schema; unlabeled
// metrics are families with a single child under the empty key.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
	order    []string // insertion order of child keys, for stable export
}

type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
	fn          atomic.Pointer[func() uint64] // kindCounterFunc only
}

// count is a counter child's value: its Counter's, or what its function
// returns now (0 before one is set).
func (c *child) count() uint64 {
	if c.counter != nil {
		return c.counter.Value()
	}
	if fn := c.fn.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

// labelKey joins label values with a separator that cannot appear in
// Prometheus label values unescaped ambiguity-free enough for a key.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.histogram = newHistogram(f.bounds)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Call it once at wiring time and keep the result: the
// returned counter updates lock-free.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues).counter
}

// CounterFuncVec is a family of function-backed counters (CounterFunc)
// partitioned by label values.
type CounterFuncVec struct{ f *family }

// Func sets the function supplying the counter with the given label
// values, replacing any set before.
func (v *CounterFuncVec) Func(f func() uint64, labelValues ...string) {
	v.f.get(labelValues).fn.Store(&f)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues).gauge
}

// Registry holds named metric families. Registration is idempotent:
// asking for an existing name with the same kind and label schema
// returns the existing family, so independent components can share a
// registry without coordinating; a kind or schema mismatch panics
// (it is a wiring bug, not a runtime condition). A function-backed
// counter is a kind of its own: registering its name again keeps the
// family and replaces the function, so the series reads whatever the
// latest registration reads; registering it as a plain Counter panics.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different kind or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	r.names = append(r.names, name)
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil).counter
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labels, nil)}
}

// CounterFunc registers an unlabeled counter whose value f returns each
// time the registry is written (WriteText) or snapshotted: the count is
// kept by its owner, and updating it touches no metric. f must be safe
// to call from any goroutine, take no lock its owner holds while using
// the registry, and never decrease. Registering name again replaces f.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.family(name, help, kindCounterFunc, nil, nil).get(nil).fn.Store(&f)
}

// CounterFuncVec registers (or returns) a labeled family of
// function-backed counters; CounterFuncVec.Func sets each child's.
func (r *Registry) CounterFuncVec(name, help string, labels ...string) *CounterFuncVec {
	return &CounterFuncVec{f: r.family(name, help, kindCounterFunc, labels, nil)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil).gauge
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, labels, nil)}
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (nil selects DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return r.family(name, help, KindHistogram, nil, bounds).get(nil).histogram
}
