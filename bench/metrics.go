package main

import "time"

// The benchmark's vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root lists the
// same names, units and bounds (bench_test.go fails on drift); the
// extra columns here — what a workload's unit of work is, which
// end-to-end number a layer metric is expected to move — have no key in
// that file's schema, so they live here and in README.md.

// workloadDef describes one named workload.
type workloadDef struct {
	Name string
	// Loop is "closed" (next operation only after the previous one
	// completed; a slow system receives less load) or "open" (operations
	// are due on a fixed schedule regardless).
	Loop string
	// Op is the unit ops_per_s, op_p01_us and cpu_us_per_op count on this
	// workload.
	Op string
	// Limit is, on an open loop, how long after its due time an operation
	// may complete and still count in ops_per_s: what a device's user
	// would not notice on a forwarded frame, and what its first
	// operational packet can wait for the rule of a join.
	Limit time.Duration
	// Why is the one-line rationale recorded in BENCHMARK.json.
	Why string
}

// Workload names. Later issues refer to workloads by these.
const (
	wlSteadyForward   = "steady_forward"
	wlJoinStorm       = "join_storm"
	wlChurnDurable    = "churn_durable"
	wlPacedRemote     = "paced_remote"
	wlServiceIdentify = "service_identify"
)

var workloads = []workloadDef{
	{wlSteadyForward, "closed", "frame", 0,
		"Bare fast path: operational frames of 10,000 assessed devices; capture, decode, shard lock and switch do all the work, identification and storage none. Bypass for identification and storage changes."},
	{wlJoinStorm, "closed", "join", 0,
		"Onboarding burst: back-to-back cold joins of 10,000 devices; feature extraction, setup capture, canonical key, assess queue and rule install dominate, the bank mostly hits its cache."},
	{wlChurnDurable, "open", "frame", 10 * time.Millisecond,
		"Full local gateway at 20,000 frames/s: journal, fleet uplink, 2 s checkpoints, quarantine retries beside forwarding. ops_per_s cannot exceed the schedule: it counts frames handled within 10 ms of due."},
	{wlPacedRemote, "open", "join", 50 * time.Millisecond,
		"The paper's split: 500 joins/s assessed over loopback HTTP (iotssp.Client to iotssp.Handler). ops_per_s cannot exceed the schedule: it counts joins enforced within 50 ms of the trigger's due time."},
	{wlServiceIdentify, "closed", "assessment", 0,
		"The IoTSSP operator's load: Service.Assess over distinct fingerprints with a fresh cache each pass, so classification, edit distance and random forests do the work."},
}

// metricDef is one metric of either list.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is expected to move — written down before measuring.
	Moves string
}

// endToEnd lists what a user of the system sees. The benchmark's
// contract has every workload report every end-to-end metric, so each is
// stated in the workload's own unit of work (workloadDef.Op):
//
//   - ops_per_s is the rate a user gets, waiting included. Closed loops:
//     frames handled (steady_forward), joins enforced (join_storm) or
//     assessments made (service_identify) per second of wall-clock, less
//     only the share of it the hypervisor took from the guest, as
//     /proc/stat reports it (phase.opsPerSec). Open loops: the operations
//     completed within workloadDef.Limit of their due time, per second;
//     at most the schedule's rate, which is constant by construction.
//   - op_p01_us times one unit of work on its fast path: the 1st
//     percentile, what the code path costs when nothing waits. Timed: a
//     frame from the moment it was due to the moment HandlePacket returned
//     (churn_durable); a join's assessment as the gateway sees it, the
//     Assess call through iotssp.Client over loopback HTTP and back
//     (paced_remote: three fifths of the floor of the time to enforcement,
//     the part the workload exists for, and the part whose floor repeats;
//     the whole, trigger due to OnAssessed, is gateway.enforce_us_p01); on
//     the closed loops, whose queueing is the generator's doing, a frame's
//     time in HandlePacket (steady_forward), a join from its trigger frame
//     reaching the gateway to OnAssessed (join_storm), one Assess call as
//     the mean of 64 consecutive ones (service_identify). The median and
//     the tail percentiles are per-layer metrics: their spread on the
//     calibration host (0.5 to 70 on the open loops) is beyond any bound
//     the contract allows.
//   - cpu_us_per_op is the processor time the guest ran for, per unit of
//     work, over the whole measured phase — /proc/stat's time neither
//     idle nor stolen, so the kernel's work for the process is in it and
//     what the hypervisor took is not (phase.cpu has why it is not the
//     process's own user+sys) — less what an open loop's generator spent
//     spinning to its schedule.
//   - heap_live_mb is the live heap after a collection at the end of the
//     measured phase, less the generated inputs.
//   - setup_s is one whole set-up, in processor seconds (user+sys): train
//     the bank, generate and marshal the inputs, start the loopback
//     servers, pre-join the residents.
//
// The bounds are the widest the contract allows; README.md, Calibration,
// has the measured spreads.
//
// A failed operation is not a metric here (the contract asks for
// metrics that are never 0): failures are the result's failed count.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p01_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// Expected movers, shared by the rows of the interaction table.
const (
	movesFastPath = "ops_per_s@steady_forward, cpu_us_per_op@churn_durable; not ops_per_s@service_identify"
	movesJoinPath = "ops_per_s@join_storm; not ops_per_s@steady_forward"
	movesBank     = "ops_per_s@service_identify; <=10% of ops_per_s@join_storm at the measured cache hit ratio; not ops_per_s@steady_forward"
	movesCache    = "ops_per_s@join_storm; not ops_per_s@service_identify (all misses)"
	movesDurable  = "ops_per_s@churn_durable (frames within the limit), gateway.forward_us_p99 and gateway.enforce_us_p95@churn_durable (tail before median), cpu_us_per_op and heap_live_mb@churn_durable; nothing on the storeless workloads"
	movesRemote   = "op_p01_us (the Assess round trip) and ops_per_s@paced_remote (joins within the limit); not gateway.enforce_us_*@churn_durable"
	movesFleet    = "cpu_us_per_op@churn_durable only; no latency metric"
	movesRuntime  = "cpu_us_per_op on every workload"
	movesHarness  = "none: describes the harness, not the system"
)

// perLayer lists the single-layer metrics of the traced run, grouped by
// the module (layer) that owns them.
var perLayer = []metricDef{
	{Name: "capture.inject_recv_ns", Unit: "ns", Better: "lower", Moves: movesFastPath},
	{Name: "capture.residency_us_p50", Unit: "us", Better: "lower", Moves: movesFastPath},
	{Name: "capture.residency_us_p99", Unit: "us", Better: "lower", Moves: movesFastPath},
	{Name: "capture.inject_block_share", Unit: "ratio", Better: "lower", Moves: movesFastPath},
	{Name: "capture.drops", Unit: "count", Better: "lower", Moves: movesFastPath},

	{Name: "packet.decode_ns", Unit: "ns", Better: "lower", Moves: movesFastPath},
	{Name: "packet.decode_allocs", Unit: "count", Better: "lower", Moves: movesFastPath},

	{Name: "features.extract_ns", Unit: "ns", Better: "lower", Moves: movesJoinPath},
	{Name: "features.extract_allocs", Unit: "count", Better: "lower", Moves: movesJoinPath},

	{Name: "fingerprint.observe_ns", Unit: "ns", Better: "lower", Moves: movesJoinPath},
	{Name: "fingerprint.build_ns", Unit: "ns", Better: "lower", Moves: movesJoinPath},
	{Name: "fingerprint.canonical_key_ns", Unit: "ns", Better: "lower", Moves: movesJoinPath},
	{Name: "fingerprint.bytes_per_fp", Unit: "B", Better: "lower", Moves: movesRemote},

	{Name: "core.classify_us", Unit: "us", Better: "lower", Moves: movesBank},
	{Name: "core.identify_miss_us", Unit: "us", Better: "lower", Moves: movesBank},
	{Name: "core.identify_hit_us", Unit: "us", Better: "lower", Moves: movesCache},
	{Name: "core.discriminate_us", Unit: "us", Better: "lower", Moves: movesBank},
	{Name: "core.identify_allocs", Unit: "count", Better: "lower", Moves: movesBank},
	{Name: "core.candidates_per_identify", Unit: "count", Better: "lower", Moves: movesBank},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesCache},
	{Name: "core.identify_batch_us_per_fp", Unit: "us", Better: "lower", Moves: movesBank},

	{Name: "editdist.distance_sum_ns", Unit: "ns", Better: "lower", Moves: movesBank},

	{Name: "iotssp.assess_us_p50", Unit: "us", Better: "lower", Moves: movesRemote},
	{Name: "iotssp.assess_us_p99", Unit: "us", Better: "lower", Moves: movesRemote},
	{Name: "iotssp.assess_errors", Unit: "count", Better: "lower", Moves: movesRemote},
	{Name: "iotssp.http_req_bytes_per_assess", Unit: "B", Better: "lower", Moves: movesRemote},
	{Name: "iotssp.http_resp_bytes_per_assess", Unit: "B", Better: "lower", Moves: movesRemote},
	{Name: "iotssp.client_retries", Unit: "count", Better: "lower", Moves: movesRemote},

	{Name: "gateway.handle_monitoring_ns_p50", Unit: "ns", Better: "lower", Moves: movesJoinPath},
	{Name: "gateway.handle_forward_ns_p50", Unit: "ns", Better: "lower", Moves: movesFastPath},
	{Name: "gateway.handle_ns_p99", Unit: "ns", Better: "lower", Moves: movesFastPath},
	{Name: "gateway.queue_wait_us_p50", Unit: "us", Better: "lower", Moves: movesJoinPath},
	{Name: "gateway.queue_wait_us_p99", Unit: "us", Better: "lower", Moves: movesJoinPath},
	{Name: "gateway.apply_us_p50", Unit: "us", Better: "lower", Moves: movesJoinPath},
	{Name: "gateway.enforce_us_p01", Unit: "us", Better: "lower", Moves: movesRemote},
	{Name: "gateway.enforce_us_p50", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "gateway.enforce_us_p95", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "gateway.enforce_us_p99", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "gateway.forward_us_p50", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "gateway.forward_us_p99", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "gateway.forward_us_max", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "gateway.stall_ms_max", Unit: "ms", Better: "lower", Moves: movesDurable},
	{Name: "gateway.checkpoint_ms_p50", Unit: "ms", Better: "lower", Moves: movesDurable},
	{Name: "gateway.checkpoint_ms_max", Unit: "ms", Better: "lower", Moves: movesDurable},
	{Name: "gateway.remove_us_p50", Unit: "us", Better: "lower", Moves: movesJoinPath},
	{Name: "gateway.queue_drops", Unit: "count", Better: "lower", Moves: movesJoinPath},
	{Name: "gateway.quarantine_flaps", Unit: "count", Better: "lower", Moves: movesDurable},

	{Name: "sdn.process_hit_ns", Unit: "ns", Better: "lower", Moves: movesFastPath},
	{Name: "sdn.process_miss_ns", Unit: "ns", Better: "lower", Moves: movesFastPath},
	{Name: "sdn.rule_put_ns", Unit: "ns", Better: "lower", Moves: movesJoinPath},
	{Name: "sdn.invalidate_ns", Unit: "ns", Better: "lower", Moves: movesJoinPath},
	{Name: "sdn.flow_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesFastPath},

	{Name: "store.append_routine_us", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "store.append_durable_us", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "store.fsyncs", Unit: "count", Better: "lower", Moves: movesDurable},
	{Name: "store.journal_bytes_per_join", Unit: "B", Better: "lower", Moves: movesDurable},
	{Name: "store.snapshot_bytes", Unit: "B", Better: "lower", Moves: movesDurable},
	{Name: "store.recover_ms", Unit: "ms", Better: "lower", Moves: movesDurable},

	{Name: "fleet.observe_ns", Unit: "ns", Better: "lower", Moves: movesFleet},
	{Name: "fleet.wire_bytes_per_fp", Unit: "B", Better: "lower", Moves: movesFleet},
	{Name: "fleet.ingested_share", Unit: "ratio", Better: "higher", Moves: movesFleet},
	{Name: "fleet.spool_depth_max", Unit: "count", Better: "lower", Moves: movesFleet},

	{Name: "runtime.allocs_per_pkt", Unit: "count", Better: "lower", Moves: movesFastPath},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: movesRuntime},
	{Name: "runtime.cpu_sys_share", Unit: "ratio", Better: "lower", Moves: movesDurable},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower", Moves: movesRuntime},

	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower", Moves: movesHarness},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: movesHarness},
	{Name: "bench.generator_late_us_p99", Unit: "us", Better: "lower", Moves: movesHarness},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
