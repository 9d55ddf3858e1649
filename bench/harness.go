package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// scale fixes how much work a run does. fullScale is the calibrated,
// frozen benchmark; bench_test.go has a smoke scale that runs in a
// second.
type scale struct {
	devices      int // modeled devices
	fpPerProfile int // service_identify: setup captures drawn per profile
	captures     int // training captures per type
	// window bounds the cold joins in flight on the closed-loop join
	// workload. It is half the per-shard assess queue, so the queue's
	// drop-oldest overflow cannot trigger.
	window     int
	churnRate  float64 // churn_durable: frames due per second
	remoteRate float64 // paced_remote: joins due per second
	// rejoinAfter is how many visits after leaving a churn_durable
	// device returns.
	rejoinAfter int64
	warm        time.Duration
	setups      int // set-ups per timed run; setup_s is their median
	probeCalls  int
	probeFor    time.Duration
	// strict makes an open-loop run that did not keep its schedule, or
	// whose system did not keep up with it, invalid. The smoke scale's
	// phases are a fifth of a second, in which one stall of a loaded test
	// host looks like either; it only reports.
	strict bool
}

var fullScale = scale{
	devices:      10000,
	fpPerProfile: 640,
	captures:     trainCaptures,
	window:       assessQueueDepth / 2,
	churnRate:    20000,
	remoteRate:   500,
	rejoinAfter:  256,
	warm:         time.Second,
	setups:       3,
	probeCalls:   100000,
	probeFor:     150 * time.Millisecond,
	strict:       true,
}

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	outDir   string
}

// run is one workload run: its inputs, the system under test, and the
// counters the generator, the frame handler and the gateway callbacks
// share.
type run struct {
	cfg  config
	wl   workloadDef
	topo *topology
	pool *pool
	// service_identify's inputs.
	fps        []fingerprint.Fingerprint
	fpCaptures int

	start time.Time
	// heapBase is the live heap after the inputs were generated and
	// before the system under test was built.
	heapBase uint64
	// swBase is the switch's counters after the pre-join: everything
	// the switch processes later is an operational burst.
	swBase sdn.SwitchStats

	handled     atomic.Int64 // frames whose HandlePacket returned
	enforced    atomic.Int64 // OnAssessed callbacks
	quarantined atomic.Int64 // OnQuarantined callbacks
	handleErrs  atomic.Int64
	injectErrs  atomic.Int64
	strayMACs   atomic.Int64
	mismatches  atomic.Int64 // service_identify answers differing from the reference
	leavesDone  atomic.Int64

	// Generator-owned.
	next        int   // next device of the round robin
	visits      int64 // open-loop visits made
	injected    int64
	setupFrames int64
	issued      int64 // cold joins issued
	removals    int64
	assessed    int64 // service_identify assessments made
	frameSeq    uint64
	// genCPU is the CPU the open-loop generator used spinning to due
	// times, in nanoseconds; it is not the system's.
	genCPU atomic.Int64
	// spinTurn is what a turn of the spin loop costs when nothing else
	// runs in it, calibrated at the start of every paced phase.
	spinTurn time.Duration
	// The open loop's frame clock: the next frame is due at clockAt,
	// the one after it clockStep later. pacing is off outside the
	// measured phases (set-up and drains run as fast as they can).
	pacing    bool
	clockAt   time.Duration
	clockStep time.Duration
	// pushedBack is set while the generator is behind its schedule
	// because an Inject waited on a full ring; lateFrames counts the
	// frames sent in that state, whose lateness is not the generator's.
	pushedBack bool
	lateFrames int64
	rejoin     []rejoin // churn_durable: devices that left, oldest first
	rng        splitmix

	recording atomic.Bool // latencies count (off during set-up and drain)
	tracing   atomic.Bool
	flakyOn   atomic.Bool
	// lastDone is when the last unit of work completed, stall the longest
	// stretch in which none did (tick).
	lastDone atomic.Int64
	stall    atomic.Int64
	spoolMax atomic.Int64

	opLat *recorder // the workload's unit operation
	// callLat is paced_remote's remote Assess call as the gateway sees it
	// (timedAssessor): the samples op_p01_us reads on that workload. It is
	// the part of a remote join's time to enforcement that the workload
	// exists for, and the only part whose floor repeats from run to run
	// (README.md, End-to-end metrics).
	callLat *recorder
	late    *recorder // open-loop generator lateness

	window chan struct{}
	leave  chan *device

	// Reference answers (oracle.go).
	typeIdx map[core.TypeID]uint32
	types   []core.TypeID
	ref     *reference

	bgStop  chan struct{}
	bgDone  sync.WaitGroup
	retryMu sync.Mutex // retryQuarantined

	tr *tracer
}

// rejoin is a device that left and the visit at which it returns.
type rejoin struct {
	d  *device
	at int64
}

// splitmix is the generator's seeded decision stream (which visit is a
// leave); math/rand's lock and allocation stay off the injection path.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRun(cfg config) (*run, error) {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{
		cfg:   cfg,
		wl:    wl,
		start: time.Now(),
		rng:   splitmix(cfg.seed),
		opLat: newRecorder(1 << 20),
		late:  newRecorder(1 << 16),
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	if wl.Name == wlPacedRemote {
		r.callLat = newRecorder(1 << 16)
	}
	return r, nil
}

func (r *run) since() time.Duration { return time.Since(r.start) }

func (r *run) kind() topoKind {
	switch r.wl.Name {
	case wlChurnDurable:
		return topoDurable
	case wlPacedRemote:
		return topoRemote
	case wlServiceIdentify:
		return topoService
	}
	return topoLocal
}

// frameOps reports whether the workload's unit operation is a frame.
func (r *run) frameOps() bool { return r.wl.Op == "frame" }

func (r *run) openLoop() bool { return r.wl.Loop == "open" }

// flakyAssessor fails every nth assessment, the seeded 1 % of
// churn_durable that keeps quarantine entry, retry and promotion — all
// durable transitions — running beside forwarding.
type flakyAssessor struct {
	inner iotssp.Assessor
	on    *atomic.Bool
	n     atomic.Uint64
	every uint64
}

var errInjected = errors.New("bench: injected assessment failure")

func (f *flakyAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	if f.on.Load() && f.n.Add(1)%f.every == 0 {
		return iotssp.Assessment{}, errInjected
	}
	return f.inner.Assess(fp)
}

// setup generates the inputs and assembles the system under test: train
// the bank, generate and marshal the pool, start the loopback servers,
// pre-join the resident population. This is what setup_s times.
func (r *run) setup() error {
	sc := r.cfg.sc
	if r.kind() == topoService {
		r.fps, r.fpCaptures = genFingerprints(r.cfg.seed, sc.fpPerProfile)
	} else {
		p, err := genPool(r.cfg.seed, sc.devices)
		if err != nil {
			return err
		}
		r.pool = p
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapBase = m.HeapAlloc

	h := hooks{
		onAssessed:    r.onAssessed,
		onQuarantined: r.onQuarantined,
	}
	h.wrap = func(a iotssp.Assessor) iotssp.Assessor {
		if r.wl.Name == wlChurnDurable {
			// Offset by the seed so different seeds fail different joins.
			f := &flakyAssessor{inner: a, on: &r.flakyOn, every: 100}
			f.n.Store(uint64(r.cfg.seed) % 100)
			a = f
		}
		if r.cfg.trace || r.callLat != nil {
			a = &timedAssessor{inner: a, r: r}
		}
		return a
	}
	t, err := buildTopology(r.kind(), r.cfg.seed, sc.captures,
		filepath.Join(r.cfg.outDir, fmt.Sprintf("state-%s-%d", r.wl.Name, r.cfg.seed)), h)
	if err != nil {
		return err
	}
	r.topo = t
	r.types = append([]core.TypeID{core.Unknown}, t.svc.Types()...)
	r.typeIdx = make(map[core.TypeID]uint32, len(r.types))
	for i, ty := range r.types {
		r.typeIdx[ty] = uint32(i)
	}
	if t.kind == topoService {
		return nil
	}
	t.pump = capture.Attach(t.fan, r.handle, capture.PumpConfig{Readers: readers(), Metrics: capture.NewMetrics(t.reg)})
	r.window = make(chan struct{}, sc.window)
	if t.kind == topoDurable {
		r.startBackground()
	}
	if t.kind != topoRemote {
		// The resident population: every device joins once, untimed.
		for _, d := range r.pool.devs {
			r.acquire()
			r.join(d)
		}
		if err := r.drain(); err != nil {
			return fmt.Errorf("pre-join: %w", err)
		}
	}
	r.swBase = t.lab.Net.Switch().Stats()
	r.flakyOn.Store(true)
	return nil
}

// retryQuarantined is the bench's RetryQuarantined call, made by one
// goroutine at a time (the retry worker, or a drain): two calls running
// at once can both assess a device, both find it still quarantined, both
// promote it and fire OnAssessed twice for one join, after which the
// count of enforced joins is one ahead of the devices enforced.
func (r *run) retryQuarantined() {
	r.retryMu.Lock()
	_, _ = r.topo.gw.RetryQuarantined(time.Now())
	r.retryMu.Unlock()
}

// stopBackground stops the checkpoint, retry and leaver goroutines and
// waits for them.
func (r *run) stopBackground() {
	if r.bgStop != nil {
		close(r.bgStop)
		close(r.leave)
		r.bgDone.Wait()
		r.bgStop = nil
	}
}

// teardown stops the system under test and waits for its goroutines.
func (r *run) teardown() {
	r.stopBackground()
	if r.topo != nil {
		r.topo.close()
		r.topo = nil
	}
}

// startBackground runs what a production gateway runs beside its data
// path: a checkpoint every 2 s, a quarantine drain every 500 ms, and
// the operator's device removals (each an fsynced journal append, so
// they cannot run on the generator's schedule).
func (r *run) startBackground() {
	r.bgStop = make(chan struct{})
	// Sized to the devices that can be away at once: a send never blocks.
	r.leave = make(chan *device, r.cfg.sc.devices)
	gw, sess := r.topo.gw, r.topo.sess
	r.bgDone.Add(2)
	go func() {
		defer r.bgDone.Done()
		checkpoint := time.NewTicker(checkpointEvery)
		retry := time.NewTicker(retryEvery)
		defer checkpoint.Stop()
		defer retry.Stop()
		for {
			select {
			case <-r.bgStop:
				return
			case <-checkpoint.C:
				t0 := r.since()
				_ = gw.Checkpoint()
				r.tr.background(r, spCheckpoint, t0, r.since())
			case <-retry.C:
				t0 := r.since()
				r.retryQuarantined()
				r.tr.background(r, spRetry, t0, r.since())
				if depth := int64(sess.Stats().SpoolDepth); depth > r.spoolMax.Load() {
					r.spoolMax.Store(depth)
				}
			}
		}
	}()
	go func() {
		defer r.bgDone.Done()
		for d := range r.leave {
			t0 := r.since()
			gw.RemoveDevice(d.mac)
			r.tr.background(r, spRemove, t0, r.since())
			d.left.Store(true)
			r.leavesDone.Add(1)
		}
	}()
}

// handle is the pump's frame handler: the boundary around HandlePacket.
func (r *run) handle(ts time.Time, pk *packet.Packet) {
	due, flags := unstamp(ts)
	var entered time.Duration
	if flags&(flagSampled|flagTraced|flagTrigger) != 0 {
		entered = r.since()
		if flags&flagTrigger != 0 {
			if d := r.pool.byMAC[pk.SrcMAC]; d != nil {
				d.enteredAt.Store(int64(entered))
			}
		}
	}
	if _, err := r.topo.gw.HandlePacket(ts, pk); err != nil {
		r.handleErrs.Add(1)
	}
	if flags&(flagSampled|flagTraced) != 0 {
		now := r.since()
		if flags&(flagSampled|flagSetup|flagTrigger) == flagSampled && r.frameOps() && r.recording.Load() {
			// An open loop times a frame from when it was due. On a closed
			// loop that would read the ring's depth over the rate; there a
			// frame's latency is its time in HandlePacket.
			from := due
			if !r.openLoop() {
				from = entered
			}
			r.opLat.add(now - from)
		}
		if flags&flagTraced != 0 {
			r.tr.frame(r, pk.SrcMAC, flags, due, entered, now)
		}
	}
	// Every 16th frame reads the clock, to find the longest stretch in
	// which no frame completed (tick).
	if n := r.handled.Add(1); n&15 == 0 || r.tracing.Load() {
		r.tick()
	}
}

// tick notes a completion and keeps the longest stretch without one.
func (r *run) tick() {
	now := int64(r.since())
	prev := r.lastDone.Swap(now)
	gap := now - prev
	if prev == 0 {
		return
	}
	for old := r.stall.Load(); gap > old && !r.stall.CompareAndSwap(old, gap); old = r.stall.Load() {
	}
}

func (r *run) onAssessed(info gateway.DeviceInfo) {
	d := r.pool.byMAC[info.MAC]
	if d == nil {
		r.strayMACs.Add(1)
		return
	}
	now := r.since()
	d.setOutcome(outcomeAssessed, int(info.Level), r.typeIdx[info.Type])
	if r.recording.Load() {
		// An open loop times a join from when its trigger frame was due: the
		// time to enforcement. A closed loop keeps a window of joins queued
		// in the ring, so there it is timed from the trigger frame reaching
		// the gateway.
		from := d.trigAt.Load()
		if !r.openLoop() {
			from = d.enteredAt.Load()
		}
		// (On a frame workload the join's latency is a per-layer metric,
		// read from the traced run's spans.)
		if !r.frameOps() {
			r.opLat.add(now - time.Duration(from))
		}
		if r.tracing.Load() {
			r.tr.join(d, now)
		}
	}
	r.release()
	r.enforced.Add(1)
}

func (r *run) onQuarantined(info gateway.DeviceInfo, _ error) {
	if d := r.pool.byMAC[info.MAC]; d != nil {
		d.setOutcome(outcomeQuarantined, int(sdn.Strict), 0)
	}
	r.quarantined.Add(1)
	r.release()
}

// acquire takes one slot of the closed-loop join window. The window is
// wider than the joins one ring block holds, so joins completing keep
// freeing slots; the nudge is the safety net for a window whose every
// join sits in a partial block the ring has not published.
func (r *run) acquire() {
	select {
	case r.window <- struct{}{}:
		return
	default:
	}
	tick := time.NewTicker(nudgeEvery)
	defer tick.Stop()
	for {
		select {
		case r.window <- struct{}{}:
			return
		case <-tick.C:
			r.nudge()
		}
	}
}

const nudgeEvery = time.Millisecond

// runt is a frame too short to decode: the pump counts it and hands it
// to nobody, so it reaches no layer behind the capture ring.
var runt = make([]byte, 13)

// nudge makes the rings publish their partial blocks, by injecting a
// runt into each: an Inject publishes the block it wrote to when the
// reader is parked or the block is older than the ring's retire time.
// Ring.Flush is the call meant for this, and the bench cannot use it:
// on a ring whose every block is published and unread it advances the
// producer past a block it never filled, after which reader and
// producer wait for each other for ever — and a generator cannot know
// from outside that the ring is not full.
func (r *run) nudge() {
	for _, ring := range r.topo.fan.Rings() {
		_ = ring.Inject(tsBase, runt)
	}
}

// release frees a window slot; it never blocks, so a join that is first
// quarantined and later promoted releases only what is held.
func (r *run) release() {
	select {
	case <-r.window:
	default:
	}
}

// inject is the Fanout.Inject boundary.
func (r *run) inject(ts time.Time, frame []byte, flags int64) {
	r.injected++
	if flags&flagTraced == 0 && !r.pacing {
		if err := r.topo.fan.Inject(ts, frame); err != nil {
			r.injectErrs.Add(1)
		}
		return
	}
	t0 := r.since()
	err := r.topo.fan.Inject(ts, frame)
	t1 := r.since()
	if err != nil {
		r.injectErrs.Add(1)
	}
	if flags&flagTraced != 0 {
		r.tr.background(r, spInject, t0, t1)
	}
	// An Inject that took this long waited for the reader to free a
	// block: the system is pushing back, and until the generator is
	// ahead of its schedule again its lateness is the system's doing.
	if r.pacing && t1-t0 > blockedInject {
		r.pushedBack = true
	}
}

// blockedInject is far above what an Inject that found room takes.
const blockedInject = 50 * time.Microsecond

// frameFlags decides what the next frame records. Spans are sampled one
// frame in 64. Latency is sampled one frame in 64 on a closed loop,
// whose millions of frames all queue alike, and taken on every frame of
// an open loop.
func (r *run) frameFlags(kind int64) int64 {
	r.frameSeq++
	nth := r.frameSeq&63 == 0
	if nth || r.openLoop() {
		kind |= flagSampled
	}
	if nth && r.tracing.Load() {
		kind |= flagTraced
	}
	return kind
}

// slot returns the next frame's due time. On a closed loop a frame is
// due now. On an open loop every frame has its own slot on the schedule:
// slot waits for it and records how late the generator itself was.
//
// The wait spins, because a sleeping thread of this class of host wakes
// a millisecond late as often as not, and it yields the processor on
// every turn, because a generator that holds one of two processors
// keeps the capture reader it has just woken from running. What the
// spinning itself costs is summed (a turn that nothing else used takes
// a fraction of a microsecond; a longer one ran somebody else's work)
// and is not charged to the system.
func (r *run) slot() time.Duration {
	if !r.pacing {
		return r.since()
	}
	due := r.clockAt
	r.clockAt += r.clockStep
	now := r.since()
	if now < due {
		r.pushedBack = false
	}
	for now < due {
		runtime.Gosched()
		t := r.since()
		// A turn nothing else ran in takes a fraction of a microsecond
		// and is the generator's; a longer one ran somebody else's work,
		// or was taken by the host, and the generator's part of it is
		// what a turn usually costs.
		if turn := t - now; turn < time.Microsecond {
			r.genCPU.Add(int64(turn))
		} else {
			r.genCPU.Add(int64(r.spinTurn))
		}
		now = t
	}
	// Every frame is timed from when it was due, so a stall imposes its
	// wait on the frames behind it. How late the generator itself ran is
	// recorded apart, for the frames the system did not push back.
	if r.pushedBack {
		r.lateFrames++
	} else {
		r.late.add(now - due)
	}
	return due
}

// calibrateSpin measures what a turn of the spin loop costs: the median
// of a thousand turns, most of which nothing else runs in.
func (r *run) calibrateSpin() {
	turns := make([]int64, 1000)
	now := r.since()
	for i := range turns {
		runtime.Gosched()
		t := r.since()
		turns[i] = int64(t - now)
		now = t
	}
	r.spinTurn = time.Duration(quantile(sorted(turns), 0.5))
}

// send injects one frame of d.
func (r *run) send(d *device, due time.Duration, kind int64, frame []byte) {
	flags := r.frameFlags(kind)
	if kind == flagTrigger && r.tracing.Load() {
		flags |= flagTraced
	}
	r.inject(stamp(d.epoch, due, flags), frame, flags)
}

// join issues one cold join of d: leave if resident, the setup frames,
// then the trigger — the first operational frame, stamped one epoch
// later and so past the idle gap. The join is timed from the moment its
// trigger was due.
func (r *run) join(d *device) {
	if d.resident {
		r.remove(d)
	}
	d.epoch++
	for _, f := range d.setup {
		r.send(d, r.slot(), flagSetup, f)
	}
	r.setupFrames += int64(len(d.setup))
	d.epoch++
	due := r.slot()
	d.trigAt.Store(int64(due))
	r.send(d, due, flagTrigger, d.ops[0])
	d.resident = true
	r.issued++
}

// burst injects d's operational frames.
func (r *run) burst(d *device) {
	if r.pacing {
		for _, f := range d.ops {
			r.send(d, r.slot(), 0, f)
		}
	} else {
		// One clock reading per burst: the closed loop sends millions.
		now := r.since()
		for _, f := range d.ops {
			r.send(d, now, 0, f)
		}
	}
	d.bursts++
}

// remove is the bench's own RemoveDevice call, made by the generator
// where no store makes it slow.
func (r *run) remove(d *device) {
	if r.tracing.Load() {
		t0 := r.since()
		r.topo.gw.RemoveDevice(d.mac)
		r.tr.background(r, spRemove, t0, r.since())
	} else {
		r.topo.gw.RemoveDevice(d.mac)
	}
	d.resident = false
	r.removals++
}

// nextDevice walks the pool round robin.
func (r *run) nextDevice() *device {
	d := r.pool.devs[r.next]
	if r.next++; r.next == len(r.pool.devs) {
		r.next = 0
	}
	return d
}

const drainTimeout = 30 * time.Second

// drainJoins waits until every issued join has been enforced. Joins a
// failed assessment parked in quarantine are re-submitted here, as the
// retry worker would, so the wait ends.
func (r *run) drainJoins() error {
	deadline := time.Now().Add(drainTimeout)
	lastRetry := time.Now()
	for r.enforced.Load() < r.issued {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d joins not enforced after %v", r.issued-r.enforced.Load(), r.issued, drainTimeout)
		}
		if r.quarantined.Load() > 0 && time.Since(lastRetry) > 20*time.Millisecond {
			r.retryQuarantined()
			lastRetry = time.Now()
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// drainFrames waits until every injected frame has been handled and
// every removal handed to the leaver has been made.
func (r *run) drainFrames() error {
	deadline := time.Now().Add(drainTimeout)
	for r.handled.Load() < r.injected-int64(r.topo.fan.Drops()) || (r.leave != nil && r.leavesDone.Load() < r.removals) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d frames not handled after %v", r.injected-r.handled.Load(), drainTimeout)
		}
		r.nudge()
		time.Sleep(nudgeEvery)
	}
	return nil
}

// drain leaves the system idle: every frame handled, every join enforced.
func (r *run) drain() error {
	if err := r.drainFrames(); err != nil {
		return err
	}
	return r.drainJoins()
}

// backlog is the work issued and not yet completed, in frames.
func (r *run) backlog() int64 {
	return r.injected - int64(r.topo.fan.Drops()) - r.handled.Load()
}

// mark is the cumulative state at a phase boundary.
type mark struct {
	at        time.Duration
	lastDone  time.Duration // when the last unit of work completed
	user, sys time.Duration
	// steal is the processor time the hypervisor took from the guest,
	// busy the time the guest's processors were not idle (steal included).
	steal, busy time.Duration
	genCPU      time.Duration
	mallocs     uint64
	gcPause     uint64
	handled     int64
	enforced    int64
	issued      int64
	injected    int64
	setupFrames int64
	removals    int64
	assessed    int64
	flaps       int64
	drops       uint64
	snap        obs.Snapshot
	sw          sdn.SwitchStats
	cacheHit    uint64
	cacheMiss   uint64
	httpReq     int64
	httpResp    int64
	httpRTs     int64
	wire        int64
	observed    int64
}

func (r *run) mark() mark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	user, sys, _ := cpuTimes()
	k := mark{
		at: r.since(), lastDone: time.Duration(r.lastDone.Load()),
		user: user, sys: sys, genCPU: time.Duration(r.genCPU.Load()),
		mallocs: m.Mallocs, gcPause: m.PauseTotalNs,
		handled: r.handled.Load(), enforced: r.enforced.Load(),
		issued: r.issued, injected: r.injected, setupFrames: r.setupFrames, removals: r.removals,
		assessed: r.assessed, flaps: r.quarantined.Load(),
	}
	k.steal, k.busy = procStat()
	t := r.topo
	k.snap = t.reg.Snapshot()
	if t.fan != nil {
		k.drops = t.fan.Drops()
		k.sw = t.lab.Net.Switch().Stats()
	}
	if c := t.id.Cache(); c != nil {
		k.cacheHit, k.cacheMiss = c.Stats()
	}
	k.httpReq, k.httpResp, k.httpRTs = t.httpReq.Load(), t.httpResp.Load(), t.httpRTs.Load()
	k.wire, k.observed = t.fleetWire.Load(), t.fleetObserved.Load()
	return k
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	from, to mark
	ops      int64
	lat      []int64 // the unit operation's latency, sorted
	// floor is what op_p01_us reads: lat, except on paced_remote, where it
	// is the remote Assess call (timedAssessor).
	floor []int64
	late  []int64 // open-loop generator lateness, sorted
	// invalid explains why an open-loop phase does not count.
	invalid string
}

func (p *phase) wall() time.Duration { return p.to.at - p.from.at }

// processCPU is the CPU the guest billed to the process, less what an
// open loop's generator spent spinning to its schedule.
func (p *phase) processCPU() time.Duration {
	return (p.to.user - p.from.user) + (p.to.sys - p.from.sys) - (p.to.genCPU - p.from.genCPU)
}

// cpu is the processor time the system under test used: the time the
// guest's processors were neither idle nor taken by the hypervisor, as
// /proc/stat counts it, less the generator's spinning. It is the whole
// guest's — kernel threads working for the process (journal commits,
// loopback softirqs) belong in it, anything else running beside the
// benchmark does not and must not be there — because what the guest bills
// to the process itself includes part of what the hypervisor took: at a
// stolen share of 0.56 a run of churn_durable was billed 6.95 s while its
// processors, all processes together, ran for 6.60 s. So billed, CPU per
// frame rose by 1.4 times the stolen share; so counted, by 0.45 times
// (README.md, Steal). Where /proc/stat is not to be had, or its hundredths
// of a second are too coarse for the phase, it is processCPU.
func (p *phase) cpu() time.Duration {
	ran := (p.to.busy - p.to.steal) - (p.from.busy - p.from.steal)
	if used := ran - (p.to.genCPU - p.from.genCPU); used > 0 {
		return used
	}
	return p.processCPU()
}

// stolen is the share of the processor time the guest asked for that the
// hypervisor gave to somebody else; 0 on a host that does not report it.
func (p *phase) stolen() float64 {
	return ratio(float64(p.to.steal-p.from.steal), float64(p.to.busy-p.from.busy))
}

// onTime is the share of the latency samples within limit.
func (p *phase) onTime(limit time.Duration) float64 {
	n := sort.Search(len(p.lat), func(i int) bool { return p.lat[i] > int64(limit) })
	return ratio(float64(n), float64(len(p.lat)))
}

// opsPerSec is the rate a user of the system gets.
//
// On a closed loop: completions over wall-clock, from the phase's start
// to its last completion; collections, lock waits and queueing count.
// Only the share of that time the hypervisor took from the guest is left
// out: the calibration host steals between nothing and three fifths of
// the guest's processor time, changing within minutes, and the same code
// read 236k to 607k frames per wall-clock second over ten runs, 552k to
// 631k so corrected (README.md, Steal).
//
// On an open loop the schedule fixes the completions, so only those
// within the workload's latency limit of their due time count: a system
// that keeps up and makes its users wait reads lower.
func (p *phase) opsPerSec(wl workloadDef) float64 {
	if wl.Loop == "open" {
		return p.onTime(wl.Limit) * float64(p.ops) / p.wall().Seconds()
	}
	got := (p.to.lastDone - p.from.at).Seconds() * (1 - p.stolen())
	return ratio(float64(p.ops), got)
}

// cpuPerOp is the system's CPU per unit of work, in nanoseconds.
func (p *phase) cpuPerOp() float64 {
	return ratio(float64(p.cpu()), float64(p.ops))
}

// measure runs one phase of the workload for d.
func (r *run) measure(d time.Duration) (*phase, error) {
	r.opLat.take()
	r.late.take()
	if r.callLat != nil {
		r.callLat.take()
	}
	p := &phase{from: r.mark()}
	r.lastDone.Store(int64(p.from.at))
	r.recording.Store(true)
	err := r.drive(d, p)
	r.recording.Store(false)
	p.to = r.mark()
	if err != nil {
		return nil, err
	}
	switch r.wl.Op {
	case "frame":
		p.ops = p.to.handled - p.from.handled
	case "join":
		p.ops = p.to.enforced - p.from.enforced
	default:
		p.ops = p.to.assessed - p.from.assessed
	}
	p.lat, p.late = r.opLat.take(), r.late.take()
	p.floor = p.lat
	if r.callLat != nil {
		p.floor = r.callLat.take()
	}
	return p, nil
}
