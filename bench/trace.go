package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
)

// Tracing from outside: spans are recorded only at boundaries this
// package owns — the Fanout.Inject call, the pump handler around
// HandlePacket, the Assessor handed to gateway.New, the gateway's
// callbacks, and the bench's own Checkpoint/RetryQuarantined/
// RemoveDevice calls. Nothing inside the repository's packages is
// instrumented. Spans stay in memory and are written when the run ends.

type spanKind uint8

const (
	spJoin       spanKind = iota // root: trigger frame due -> OnAssessed
	spFrame                      // root: sampled frame due -> HandlePacket returned
	spResidency                  // capture.residency: due -> pump handler entered
	spHandle                     // gateway.handle: the HandlePacket call
	spQueueWait                  // gateway.queue_wait: trigger handled -> assessor entered
	spAssess                     // iotssp.assess: the Assessor call
	spApply                      // gateway.apply: assessor returned -> OnAssessed
	spInject                     // capture.inject: the Fanout.Inject call
	spCheckpoint                 // gateway.checkpoint
	spRetry                      // gateway.retry_quarantined
	spRemove                     // gateway.remove
	spNone       spanKind = 255
)

var spanNames = map[spanKind]string{
	spJoin: "join", spFrame: "frame", spResidency: "capture.residency",
	spHandle: "gateway.handle", spQueueWait: "gateway.queue_wait",
	spAssess: "iotssp.assess", spApply: "gateway.apply", spInject: "capture.inject",
	spCheckpoint: "gateway.checkpoint", spRetry: "gateway.retry_quarantined",
	spRemove: "gateway.remove",
}

// span is one recorded interval. Spans of one join or frame share a
// trace id; parent names the span that caused it.
type span struct {
	trace      uint64
	kind       spanKind
	parent     spanKind
	flags      uint8 // the frame's flag bits, for handle spans
	start, end int64 // ns since the run started
}

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept. The buffer is allocated whole before the run: growing it while
// the reader waits on the tracer's lock showed as a quarter-second
// stall of the system under test.
const maxSpans = 1 << 20

// assessRec is one Assessor call waiting to be claimed by the join it
// served. The Assessor interface carries only the fingerprint, so the
// call is matched to its join by fingerprint signature: apply runs on
// the goroutine that assessed, right after it, so the newest unclaimed
// record with the join's signature that ended before OnAssessed is the
// join's own — or that of a device with the same fingerprint finishing
// in the same microseconds, which measures the same thing.
type assessRec struct {
	sig        uint64
	start, end int64
	claimed    bool
}

type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
	nextID  uint64
	recent  [256]assessRec
	head    int

	assessLat  *recorder
	assessErrs int64
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, maxSpans), assessLat: newRecorder(1 << 20)}
}

// reset empties the trace before a traced phase (again, if the phase
// before it was discarded), keeping the span buffer.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = t.spans[:0], 0
	t.recent, t.head, t.assessErrs = [len(t.recent)]assessRec{}, 0, 0
	t.mu.Unlock()
	t.assessLat.take()
}

func (t *tracer) addLocked(s span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// background records a root span of the bench's own calls, while the
// run is tracing.
func (t *tracer) background(r *run, kind spanKind, start, end time.Duration) {
	if t == nil || !r.tracing.Load() {
		return
	}
	t.mu.Lock()
	t.nextID++
	t.addLocked(span{trace: t.nextID, kind: kind, parent: spNone, start: int64(start), end: int64(end)})
	t.mu.Unlock()
}

// frame records a sampled frame: residency and handle under a frame
// root, or — for a join's trigger — remembers them for the join's root.
func (t *tracer) frame(r *run, mac packet.MAC, flags int64, due, entered, done time.Duration) {
	if flags&flagTrigger != 0 {
		if d := r.pool.byMAC[mac]; d != nil {
			d.enteredAt.Store(int64(entered))
			d.handledAt.Store(int64(done))
		}
		return
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.addLocked(span{trace: id, kind: spFrame, parent: spNone, flags: uint8(flags), start: int64(due), end: int64(done)})
	t.addLocked(span{trace: id, kind: spResidency, parent: spFrame, flags: uint8(flags), start: int64(due), end: int64(entered)})
	t.addLocked(span{trace: id, kind: spHandle, parent: spFrame, flags: uint8(flags), start: int64(entered), end: int64(done)})
	t.mu.Unlock()
}

// join records a completed cold join: the root and its chain of
// children, residency -> handle -> queue wait -> assess -> apply.
func (t *tracer) join(d *device, now time.Duration) {
	due, entered, handled := d.trigAt.Load(), d.enteredAt.Load(), d.handledAt.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	t.addLocked(span{trace: id, kind: spJoin, parent: spNone, start: due, end: int64(now)})
	if handled < due {
		return // the trigger was handled before tracing was switched on
	}
	t.addLocked(span{trace: id, kind: spResidency, parent: spJoin, flags: uint8(flagTrigger), start: due, end: entered})
	t.addLocked(span{trace: id, kind: spHandle, parent: spJoin, flags: uint8(flagTrigger), start: entered, end: handled})
	for i := 0; i < len(t.recent); i++ {
		rec := &t.recent[(t.head-1-i+2*len(t.recent))%len(t.recent)]
		if rec.claimed || rec.sig != d.sig || rec.end > int64(now) || rec.start < handled {
			continue
		}
		rec.claimed = true
		t.addLocked(span{trace: id, kind: spQueueWait, parent: spJoin, start: handled, end: rec.start})
		t.addLocked(span{trace: id, kind: spAssess, parent: spJoin, start: rec.start, end: rec.end})
		t.addLocked(span{trace: id, kind: spApply, parent: spJoin, start: rec.end, end: int64(now)})
		return
	}
}

// signature is a cheap fingerprint identity for matching an Assessor
// call to its join (see assessRec); collisions only ever swap spans of
// two calls in flight at once.
func signature(fp *fingerprint.Fingerprint) uint64 {
	h := uint64(len(fp.F))<<32 ^ uint64(fp.UniqueCount)
	for i, f := range fp.FPrime {
		h = (h ^ math.Float64bits(f)) * (2*uint64(i) + 0x9e3779b97f4a7c15)
	}
	return h
}

// timedAssessor is the Assessor boundary. It times the call — through
// iotssp.Client, over loopback HTTP to iotssp.Handler and back — for
// paced_remote's op_p01_us and, while tracing, leaves a record for the
// join to claim.
type timedAssessor struct {
	inner iotssp.Assessor
	r     *run
}

func (ta *timedAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	r := ta.r
	tracing := r.tracing.Load()
	timed := r.callLat != nil && r.recording.Load()
	if !tracing && !timed {
		return ta.inner.Assess(fp)
	}
	start := r.since()
	a, err := ta.inner.Assess(fp)
	end := r.since()
	if timed {
		r.callLat.add(end - start)
	}
	if !tracing {
		return a, err
	}
	sig := signature(&fp)
	t := r.tr
	t.assessLat.add(end - start)
	t.mu.Lock()
	if err != nil {
		t.assessErrs++
	} else {
		t.recent[t.head] = assessRec{sig: sig, start: int64(start), end: int64(end)}
		t.head = (t.head + 1) % len(t.recent)
	}
	t.mu.Unlock()
	return a, err
}

// durations returns the sorted lengths of every span of a kind that
// passes keep (nil keeps all).
func (t *tracer) durations(kind spanKind, keep func(*span) bool) []int64 {
	var out []int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind == kind && (keep == nil || keep(s)) {
			out = append(out, s.end-s.start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// traceFile is the written form of a trace.
type traceFile struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	SpansTotal   int64            `json:"spans_total"`
	SpansWritten int              `json:"spans_written"`
	SelfTimeNs   map[string]int64 `json:"self_time_ns"`
	Spans        []traceSpan      `json:"spans"`
}

type traceSpan struct {
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxWritten bounds the trace file; the in-memory trace feeds the
// metrics, the file is for reading individual joins.
const maxWritten = 60000

// selfTimes sums, per span name, span time not covered by child spans.
func (t *tracer) selfTimes() map[string]int64 {
	children := make(map[uint64]int64)
	for i := range t.spans {
		if s := &t.spans[i]; s.parent != spNone {
			children[s.trace] += s.end - s.start
		}
	}
	self := make(map[string]int64)
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		if s.parent == spNone {
			d -= children[s.trace]
		}
		self[spanNames[s.kind]] += d
	}
	return self
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out := traceFile{
		Workload:   workload,
		Seed:       seed,
		SpansTotal: int64(len(t.spans)) + t.dropped,
		SelfTimeNs: t.selfTimes(),
	}
	n := len(t.spans)
	if n > maxWritten {
		n = maxWritten
	}
	out.SpansWritten = n
	out.Spans = make([]traceSpan, n)
	for i, s := range t.spans[:n] {
		ts := traceSpan{Trace: s.trace, Name: spanNames[s.kind], StartNs: s.start, EndNs: s.end}
		if s.parent != spNone {
			ts.Parent = spanNames[s.parent]
		}
		out.Spans[i] = ts
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
