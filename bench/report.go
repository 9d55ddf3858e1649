package main

import (
	"fmt"
	"runtime"
	"time"

	"iotsentinel/internal/store"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. Its first four fields are the last
// line of standard output; the rest goes into the -json file.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload string `json:"-"`
	Seed     int64  `json:"-"`
	Trace    bool   `json:"-"`
	// Info describes the run beyond the contract's metrics: how much
	// work the timed phase did, sample counts, input sharing.
	Info  map[string]float64 `json:"-"`
	Notes []string           `json:"-"`
}

// execute runs one workload once: set-up (several times on a timed run,
// so setup_s is a median), an untimed warm-up pass, the measured phase
// or phases, the layer probes on a traced run, the oracle, teardown.
func execute(cfg config) (*result, error) {
	sc := cfg.sc
	setups := sc.setups
	if cfg.trace {
		setups = 1
	}
	var r *run
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.teardown()
			runtime.GC()
		}
		var err error
		if r, err = newRun(cfg); err != nil {
			return nil, err
		}
		// Set-up is timed in processor time: its wall-clock time moves by
		// half with what the host's other guests do to processor and disk.
		user0, sys0, _ := cpuTimes()
		if err := r.setup(); err != nil {
			r.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		user1, sys1, _ := cpuTimes()
		setupTimes = append(setupTimes, (user1 - user0 + sys1 - sys0).Seconds())
	}
	defer r.teardown()
	if err := r.buildReference(); err != nil {
		return nil, err
	}

	// Warm-up: ring blocks faulted in, scratch pools filled, flows installed.
	if _, err := r.measure(sc.warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: make(map[string]value), Info: make(map[string]float64),
	}

	var timed, traced *phase
	var err error
	if !cfg.trace {
		if timed, err = r.measureValid(total, false, res); err != nil {
			return nil, err
		}
	} else {
		// Half the time untraced, half traced: the difference between the
		// two is what tracing costs.
		if timed, err = r.measureValid(total/2, false, res); err != nil {
			return nil, err
		}
		if traced, err = r.measureValid(total/2, true, res); err != nil {
			return nil, err
		}
	}

	// The live heap of the system under test at the end of the phase.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapLive := float64(mem.HeapAlloc) - float64(r.heapBase)

	r.stopBackground()
	liveFlows := 0
	if r.topo.lab != nil {
		liveFlows = r.topo.lab.Net.Switch().Table().Len()
	}
	if r.kind() != topoService {
		if err := r.ref.assess(r.topo.svc); err != nil {
			return nil, err
		}
	}
	var probes map[string]float64
	if cfg.trace {
		if probes, err = r.runProbes(liveFlows); err != nil {
			return nil, err
		}
	}
	v, err := r.verify()
	if err != nil {
		return nil, err
	}

	last := timed
	if traced != nil {
		last = traced
	}
	res.Attempted = attemptedIn(r, timed) + attemptedIn(r, traced)
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Failed = r.handleErrs.Load() + r.injectErrs.Load() + r.strayMACs.Load() +
		int64(last.to.drops) + int64(last.to.snap.Value("gateway_assess_queue_drops_total")) +
		(r.issued - r.enforced.Load()) + v.mismatches
	res.Correct = v.mismatches == 0
	res.Notes = append(res.Notes, v.notes...)

	if !cfg.trace {
		emitEndToEnd(res, timed, r.wl, median(setupTimes), heapLive)
	} else {
		emitPerLayer(res, r, timed, traced, probes, v)
		if path, err := r.tr.write(cfg.outDir, cfg.workload, cfg.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		} else {
			res.Notes = append(res.Notes, "spans written to "+path)
		}
	}
	res.Info["ops"] = float64(last.ops)
	res.Info["wall_s"] = last.wall().Seconds()
	res.Info["op_samples"] = float64(len(last.lat))
	res.Info["op_p99_us"] = us(quantile(last.lat, 0.99))
	res.Info["op_p50_us"] = us(quantile(last.lat, 0.50))
	if r.callLat != nil {
		// op_p01_us reads the Assess call there; this is the whole join's.
		res.Info["enforce_p01_us"] = us(quantile(last.lat, 0.01))
	}
	res.Info["stolen_share"] = last.stolen()
	res.Info["billed_cpu_us_per_op"] = us(ratio(float64(last.processCPU()), float64(last.ops)))
	if r.openLoop() {
		res.Info["on_time_share"] = last.onTime(r.wl.Limit)
	} else {
		res.Info["wall_clock_ops_per_s"] = ratio(float64(last.ops), (last.to.lastDone - last.from.at).Seconds())
	}
	res.Info["generator_late_us_p99"] = us(quantile(last.late, 0.99))
	res.Info["frames_pushed_back"] = float64(r.lateFrames)
	res.Info["distinct_fingerprints"] = float64(len(r.ref.fps))
	if r.pool != nil {
		res.Info["devices"] = float64(len(r.pool.devs))
		res.Info["frames_handled"] = float64(last.to.handled - last.from.handled)
		res.Info["joins_enforced"] = float64(last.to.enforced - last.from.enforced)
		res.Info["quarantine_flaps"] = float64(last.to.flaps - last.from.flaps)
		res.Info["removals"] = float64(last.to.removals - last.from.removals)
		res.Info["flow_table_entries"] = float64(liveFlows)
	} else {
		res.Info["captures_drawn"] = float64(r.fpCaptures)
	}
	return res, nil
}

// phaseAttempts is how often a measured phase of an open loop is tried
// before the run is invalid.
const phaseAttempts = 3

// measureValid measures one phase, traced or not. An open-loop phase that
// did not keep its schedule, or whose system did not keep up with it, is
// discarded and measured again: the calibration host at times takes more
// than half the processor for seconds on end, and a phase measured then
// says nothing about the program (one run of paced_remote in about
// seventy ended 233 joins behind, against the 125 allowed). A system that
// cannot keep the schedule fails every attempt, and with them the run.
func (r *run) measureValid(d time.Duration, tracing bool, res *result) (*phase, error) {
	for attempt := 1; ; attempt++ {
		if tracing {
			r.stall.Store(0)
			r.tr.reset()
			r.tracing.Store(true)
		}
		p, err := r.measure(d)
		r.tracing.Store(false)
		if err != nil {
			return nil, err
		}
		why := p.invalid
		if late := quantile(p.late, 0.99); why == "" && late > float64(maxOwnLateness) {
			why = fmt.Sprintf("the generator's own lateness p99 is %.0f us, above %v", us(late), maxOwnLateness)
		}
		if why == "" || !r.cfg.sc.strict {
			return p, nil
		}
		if attempt == phaseAttempts {
			return nil, fmt.Errorf("invalid open-loop run, %d phases in a row: %s", phaseAttempts, why)
		}
		res.Info["phases_discarded"]++
		res.Notes = append(res.Notes, "phase discarded and measured again: "+why)
	}
}

// maxOwnLateness is the most the generator of an open loop may itself
// run late, at the 99th percentile and not counting frames the system
// pushed back, before the run is invalid. Lateness is part of every
// latency (a frame is timed from when it was due), so it already lowers
// an open loop's ops_per_s; the limit is for a generator that cannot keep
// its schedule at all. The target was 1 ms; the calibration host, which
// at times takes the processor from a busy thread for 0.3 to 30 ms several
// hundred times a second, gave 0.4 to 43 ms from run to run, and a run
// must not fail for the host's reasons.
const maxOwnLateness = backlogSlack

// attemptedIn counts the unit operations a phase issued.
func attemptedIn(r *run, p *phase) int64 {
	if p == nil {
		return 0
	}
	switch r.wl.Op {
	case "frame":
		return p.to.injected - p.from.injected
	case "join":
		return p.to.issued - p.from.issued
	}
	return p.to.assessed - p.from.assessed
}

func (res *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			res.Metrics[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the vocabulary")
}

// emitEndToEnd fills the end-to-end metrics from the timed phase.
func emitEndToEnd(res *result, p *phase, wl workloadDef, setupS, heapLive float64) {
	res.set(endToEnd, "setup_s", setupS)
	res.set(endToEnd, "ops_per_s", p.opsPerSec(wl))
	res.set(endToEnd, "op_p01_us", us(quantile(p.floor, 0.01)))
	res.set(endToEnd, "cpu_us_per_op", us(p.cpuPerOp()))
	res.set(endToEnd, "heap_live_mb", heapLive/(1<<20))
}

// emitPerLayer fills every per-layer metric from the traced phase t:
// spans for what the bench's own boundaries time, counters for what
// the layers count themselves, probes for the cost of a call. A metric
// whose layer the workload does not drive reads 0. u is the untraced
// phase before it.
func emitPerLayer(res *result, r *run, u, t *phase, probes map[string]float64, v *verdict) {
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{Unit: d.Unit}
	}
	set := func(name string, x float64) { res.set(perLayer, name, x) }
	for name, x := range probes {
		set(name, x)
	}
	tr := r.tr
	delta := func(name string, kv ...string) float64 {
		return t.to.snap.Value(name, kv...) - t.from.snap.Value(name, kv...)
	}
	frames := float64(t.to.handled - t.from.handled)
	joins := float64(t.to.enforced - t.from.enforced)
	wall := float64(t.wall())

	// capture
	residency := tr.durations(spResidency, nil)
	set("capture.residency_us_p50", us(quantile(residency, 0.50)))
	set("capture.residency_us_p99", us(quantile(residency, 0.99)))
	// Inject spans are one call in 64, plus every trigger: their mean
	// times the calls made is the time spent in Inject.
	injects := tr.durations(spInject, nil)
	var injectTime int64
	for _, d := range injects {
		injectTime += d
	}
	meanInject := ratio(float64(injectTime), float64(len(injects)))
	set("capture.inject_block_share", ratio(meanInject*float64(t.to.injected-t.from.injected), wall))
	set("capture.drops", float64(t.to.drops-t.from.drops))

	// core
	hits, misses := float64(t.to.cacheHit-t.from.cacheHit), float64(t.to.cacheMiss-t.from.cacheMiss)
	set("core.cache_hit_ratio", ratio(hits, hits+misses))

	// iotssp
	assess := tr.assessLat.take()
	set("iotssp.assess_us_p50", us(quantile(assess, 0.50)))
	set("iotssp.assess_us_p99", us(quantile(assess, 0.99)))
	set("iotssp.assess_errors", float64(tr.assessErrs))
	rts := float64(t.to.httpRTs - t.from.httpRTs)
	set("iotssp.http_req_bytes_per_assess", ratio(float64(t.to.httpReq-t.from.httpReq), rts))
	set("iotssp.http_resp_bytes_per_assess", ratio(float64(t.to.httpResp-t.from.httpResp), rts))
	if rts > 0 {
		set("iotssp.client_retries", rts-float64(len(assess)))
	}

	// gateway
	handleOf := func(kind int64) []int64 {
		return tr.durations(spHandle, func(s *span) bool { return int64(s.flags)&(flagSetup|flagTrigger) == kind })
	}
	set("gateway.handle_monitoring_ns_p50", quantile(handleOf(flagSetup), 0.50))
	set("gateway.handle_forward_ns_p50", quantile(handleOf(0), 0.50))
	set("gateway.handle_ns_p99", quantile(tr.durations(spHandle, nil), 0.99))
	wait := tr.durations(spQueueWait, nil)
	set("gateway.queue_wait_us_p50", us(quantile(wait, 0.50)))
	set("gateway.queue_wait_us_p99", us(quantile(wait, 0.99)))
	set("gateway.apply_us_p50", us(quantile(tr.durations(spApply, nil), 0.50)))
	enforce := tr.durations(spJoin, nil)
	set("gateway.enforce_us_p01", us(quantile(enforce, 0.01)))
	set("gateway.enforce_us_p50", us(quantile(enforce, 0.50)))
	set("gateway.enforce_us_p95", us(quantile(enforce, 0.95)))
	set("gateway.enforce_us_p99", us(quantile(enforce, 0.99)))
	forward := tr.durations(spFrame, func(s *span) bool { return int64(s.flags)&(flagSetup|flagTrigger) == 0 })
	set("gateway.forward_us_max", us(quantile(forward, 1)))
	if r.frameOps() {
		// The unit operation's median and tail, over every sample of the
		// traced phase.
		set("gateway.forward_us_p50", us(quantile(t.lat, 0.50)))
		set("gateway.forward_us_p99", us(quantile(t.lat, 0.99)))
	}
	set("gateway.stall_ms_max", ms(float64(r.stall.Load())))
	checkpoints := tr.durations(spCheckpoint, nil)
	set("gateway.checkpoint_ms_p50", ms(quantile(checkpoints, 0.50)))
	set("gateway.checkpoint_ms_max", ms(quantile(checkpoints, 1)))
	set("gateway.remove_us_p50", us(quantile(tr.durations(spRemove, nil), 0.50)))
	set("gateway.queue_drops", delta("gateway_assess_queue_drops_total"))
	set("gateway.quarantine_flaps", float64(t.to.flaps-t.from.flaps))

	// sdn
	tableHits := float64(t.to.sw.TableHits - t.from.sw.TableHits)
	set("sdn.flow_hit_ratio", ratio(tableHits, tableHits+float64(t.to.sw.PacketIns-t.from.sw.PacketIns)))

	// store
	batched, fsynced := delta("store_journal_appends_total", "durability", "batched"), delta("store_journal_appends_total", "durability", "fsync")
	// The journal fsyncs on every durable append, on every SyncEvery-th
	// routine one, and once per snapshot.
	set("store.fsyncs", fsynced+batched/store.DefaultSyncEvery+delta("store_snapshots_total"))
	set("store.journal_bytes_per_join", ratio(delta("store_journal_bytes_total"), joins))
	set("store.snapshot_bytes", float64(v.snapshotBytes))
	set("store.recover_ms", ms(float64(v.recoverTime)))

	// fleet
	set("fleet.wire_bytes_per_fp", ratio(float64(t.to.wire-t.from.wire), float64(t.to.observed-t.from.observed)))
	if r.kind() == topoDurable {
		set("fleet.ingested_share", v.ingestedShare)
	}
	set("fleet.spool_depth_max", float64(r.spoolMax.Load()))

	// runtime
	perOp := frames
	if r.pool == nil {
		perOp = float64(t.ops)
	}
	set("runtime.allocs_per_pkt", ratio(float64(t.to.mallocs-t.from.mallocs), perOp))
	set("runtime.gc_pause_ms", ms(float64(t.to.gcPause-t.from.gcPause)))
	user, sys := float64(t.to.user-t.from.user), float64(t.to.sys-t.from.sys)
	set("runtime.cpu_sys_share", ratio(sys, user+sys))
	_, _, rss := cpuTimes()
	set("runtime.peak_rss_mb", float64(rss)/1024)

	// bench: what the layers' costs per call, times how often each was
	// called, leave unexplained of the CPU the traced phase used. The
	// gateway has no probe of its own (its entry points are what the
	// workloads drive), so its share is the median handle, assess and
	// apply span.
	get := func(name string) float64 { return res.Metrics[name].Value }
	setupFrames := float64(t.to.setupFrames - t.from.setupFrames)
	var checkpointTime int64
	for _, d := range checkpoints {
		checkpointTime += d
	}
	attributed := frames*(get("capture.inject_recv_ns")+get("packet.decode_ns")) +
		setupFrames*get("gateway.handle_monitoring_ns_p50") +
		(frames-setupFrames)*get("gateway.handle_forward_ns_p50") +
		joins*(get("fingerprint.build_ns")+1e3*(get("iotssp.assess_us_p50")+get("gateway.apply_us_p50"))) +
		float64(t.to.removals-t.from.removals)*1e3*get("gateway.remove_us_p50") +
		float64(checkpointTime)
	if r.pool == nil {
		attributed = float64(t.ops) * 1e3 * get("iotssp.assess_us_p50")
	}
	set("bench.unattributed_share", 1-ratio(attributed, float64(t.cpu())))
	if r.openLoop() {
		// The schedule fixes an open loop's rate; tracing shows as CPU.
		cu, ct := u.cpuPerOp(), t.cpuPerOp()
		set("bench.trace_overhead_share", ratio(ct-cu, cu))
	} else {
		set("bench.trace_overhead_share", ratio(u.opsPerSec(r.wl)-t.opsPerSec(r.wl), u.opsPerSec(r.wl)))
	}
	set("bench.generator_late_us_p99", us(quantile(t.late, 0.99)))
}
