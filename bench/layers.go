package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/core"
	"iotsentinel/internal/editdist"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/netsim"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
)

// Layer probes: single-threaded timed calls straight into each layer's
// public functions, over the workload's own frames and fingerprints.
// This is the only file that calls below the daemon-level API, so a
// change to a layer's signature breaks the probes and not the workloads.

// probeDevices bounds the devices whose frames a probe cycles through:
// enough to defeat a trivially warm cache line, few enough to prepare
// in milliseconds.
const probeDevices = 512

// cost is one probe's result per call.
type cost struct{ ns, allocs float64 }

// probeBatch is how many calls a probe times at once.
const probeBatch = 128

// probe calls fn(i) for i = 0, 1, ... in batches until the scale's call
// count or time limit is reached, and returns the median over batches
// of the mean cost of a call: a batch the host stalled in does not
// move the result.
func (sc scale) probe(fn func(i int)) cost {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var batches []float64
	n := 0
	for n < sc.probeCalls && (n == 0 || time.Since(start) < sc.probeFor) {
		t0 := time.Now()
		for k := 0; k < probeBatch; k++ {
			fn(n)
			n++
		}
		batches = append(batches, float64(time.Since(t0))/probeBatch)
	}
	runtime.ReadMemStats(&after)
	return cost{
		ns:     median(batches),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

// probeInputs are the workload's inputs in the forms the layers take.
type probeInputs struct {
	devs   []*device
	frames [][]byte            // setup frames of devs, flattened
	pkts   []*packet.Packet    // the same, decoded
	first  []bool              // pkts[i] starts a device's capture
	vecs   [][]features.Vector // per device
	ops    [][]*packet.Packet  // per device: one packet per distinct flow
	fps    []fingerprint.Fingerprint
}

func (r *run) probeInputs() (*probeInputs, error) {
	in := &probeInputs{fps: r.ref.fps}
	pl := r.pool
	if pl == nil {
		// service_identify has fingerprints and no frames; the frame-level
		// probes run on a small pool drawn under the same seed.
		var err error
		if pl, err = genPool(r.cfg.seed, probeDevices); err != nil {
			return nil, err
		}
	}
	in.devs = pl.devs
	if len(in.devs) > probeDevices {
		in.devs = in.devs[:probeDevices]
	}
	for _, d := range in.devs {
		var pkts []*packet.Packet
		for i, f := range d.setup {
			pk, err := packet.Decode(f)
			if err != nil {
				return nil, fmt.Errorf("probe: decode %s setup frame %d: %w", d.profile, i, err)
			}
			in.frames = append(in.frames, f)
			in.first = append(in.first, i == 0)
			pkts = append(pkts, pk)
		}
		in.pkts = append(in.pkts, pkts...)
		in.vecs = append(in.vecs, features.ExtractAll(pkts))
		flows := make(map[packet.FlowKey]bool)
		var ops []*packet.Packet
		for i, f := range d.ops {
			pk, err := packet.Decode(f)
			if err != nil {
				return nil, fmt.Errorf("probe: decode %s op frame %d: %w", d.profile, i, err)
			}
			if !flows[pk.Flow()] {
				flows[pk.Flow()] = true
				ops = append(ops, pk)
			}
		}
		in.ops = append(in.ops, ops)
	}
	return in, nil
}

// runProbes measures every layer and returns the per-layer metrics the
// probes own. liveFlows is the size of the workload's flow table, which
// the switch probes reproduce. It runs on the drained system, before
// the oracle: the bank's cache is left fresh, the live fleet session
// (churn_durable) gets a counted batch of observations.
func (r *run) runProbes(liveFlows int) (map[string]float64, error) {
	sc := r.cfg.sc
	in, err := r.probeInputs()
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	ts := stamp(1, 0, 0)

	// capture: a private lossless ring, blocks of 64 frames through it.
	ring := capture.NewRing(capture.RingConfig{Lossless: true})
	var ringErr error
	c := sc.probe(func(i int) {
		if err := ring.Inject(ts, in.frames[i%len(in.frames)]); err != nil {
			ringErr = err
		}
		if i&63 == 63 {
			ring.Flush()
			for k := 0; k < 64; k++ {
				if _, err := ring.Recv(); err != nil {
					ringErr = err
				}
			}
		}
	})
	_ = ring.Close()
	if ringErr != nil {
		return nil, fmt.Errorf("probe: ring: %w", ringErr)
	}
	m["capture.inject_recv_ns"] = c.ns

	c = sc.probe(func(i int) { _, _ = packet.Decode(in.frames[i%len(in.frames)]) })
	m["packet.decode_ns"], m["packet.decode_allocs"] = c.ns, c.allocs

	ext := features.NewExtractor()
	c = sc.probe(func(i int) {
		k := i % len(in.pkts)
		if in.first[k] {
			ext.Reset()
		}
		_ = ext.Extract(in.pkts[k])
	})
	m["features.extract_ns"], m["features.extract_allocs"] = c.ns, c.allocs

	var setupCap *fingerprint.SetupCapture
	c = sc.probe(func(i int) {
		k := i % len(in.pkts)
		if in.first[k] {
			setupCap = fingerprint.NewSetupCapture(0, 0)
		}
		setupCap.Observe(ts, in.pkts[k])
	})
	m["fingerprint.observe_ns"] = c.ns
	c = sc.probe(func(i int) { _ = fingerprint.FromVectors(in.vecs[i%len(in.vecs)]) })
	m["fingerprint.build_ns"] = c.ns
	c = sc.probe(func(i int) { _ = in.fps[i%len(in.fps)].CanonicalKey() })
	m["fingerprint.canonical_key_ns"] = c.ns
	var fpBytes int
	for i := range in.fps {
		fpBytes += len(in.fps[i].F) * features.Count * 8
	}
	m["fingerprint.bytes_per_fp"] = ratio(float64(fpBytes), float64(len(in.fps)))

	if err := r.probeCore(in, m); err != nil {
		return nil, err
	}

	refs := make([]fingerprint.F, 0, 5)
	for i := 0; i < len(in.fps) && i < 5; i++ {
		refs = append(refs, in.fps[i].F)
	}
	rs := editdist.NewRefSet(refs)
	c = sc.probe(func(i int) { _, _, _ = rs.DistanceSumBounded(in.fps[i%len(in.fps)].F, math.Inf(1)) })
	m["editdist.distance_sum_ns"] = c.ns

	if err := r.probeSwitch(in, m, liveFlows); err != nil {
		return nil, err
	}
	if err := r.probeStore(in, m); err != nil {
		return nil, err
	}

	if sess := r.topo.sess; sess != nil {
		// At most the spool's worth, so nothing observed is dropped and the
		// oracle's ingested == observed still has to hold.
		limit := sc
		if limit.probeCalls > 4096 {
			limit.probeCalls = 4096
		}
		c = limit.probe(func(i int) {
			if sess.Observe(in.fps[i%len(in.fps)]) == nil {
				r.topo.fleetObserved.Add(1)
			}
		})
		m["fleet.observe_ns"] = c.ns
	}
	return m, nil
}

// probeCore times the bank on the distinct fingerprints: classification
// alone, a whole identification that misses the cache, one that hits,
// and the batch entry point.
func (r *run) probeCore(in *probeInputs, m map[string]float64) error {
	sc, id := r.cfg.sc, r.topo.id
	fps := in.fps
	if len(fps) > core.DefaultCacheSize/2 {
		// Few enough that a pass fits the cache: the second pass hits.
		fps = fps[:core.DefaultCacheSize/2]
	}
	c := sc.probe(func(i int) { _ = id.ClassifyOnly(fps[i%len(fps)]) })
	m["core.classify_us"] = us(c.ns)

	var miss, hit time.Duration
	var missN, hitN, candidates int
	var mallocs uint64
	var res core.Result
	var ms0, ms1 runtime.MemStats
	for start := time.Now(); missN < sc.probeCalls && time.Since(start) < 2*sc.probeFor; {
		if err := id.ApplyRuntime(0, core.DefaultCacheSize); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, fp := range fps {
			id.IdentifyInto(fp, &res)
			candidates += len(res.Matches)
		}
		miss += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		missN += len(fps)
		t0 = time.Now()
		for _, fp := range fps {
			id.IdentifyInto(fp, &res)
		}
		hit += time.Since(t0)
		hitN += len(fps)
	}
	m["core.identify_miss_us"] = us(float64(miss) / float64(missN))
	m["core.identify_hit_us"] = us(float64(hit) / float64(hitN))
	m["core.discriminate_us"] = m["core.identify_miss_us"] - m["core.classify_us"]
	m["core.identify_allocs"] = float64(mallocs) / float64(missN)
	m["core.candidates_per_identify"] = float64(candidates) / float64(missN)

	if err := id.ApplyRuntime(0, core.DefaultCacheSize); err != nil {
		return err
	}
	t0 := time.Now()
	_ = id.IdentifyBatch(fps)
	m["core.identify_batch_us_per_fp"] = us(float64(time.Since(t0)) / float64(len(fps)))
	return id.ApplyRuntime(0, core.DefaultCacheSize)
}

// probeSwitch times the switch on a private lab holding a rule per probe
// device: flows that miss the table, flows that hit it, a rule install,
// and the flow invalidation every join and removal makes — on a table
// as large as the workload's, because it scans the table.
func (r *run) probeSwitch(in *probeInputs, m map[string]float64, liveFlows int) error {
	sc := r.cfg.sc
	newLab := func() (*netsim.Lab, []*sdn.EnforcementRule, error) {
		lab, err := netsim.NewLab(r.cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		rules := make([]*sdn.EnforcementRule, len(in.devs))
		for i, d := range in.devs {
			rules[i] = &sdn.EnforcementRule{DeviceMAC: d.mac, Level: sdn.Trusted, DeviceType: d.profile}
			if d.class < len(r.ref.answers) && r.pool != nil {
				a := r.ref.answers[d.class]
				rules[i].Level, rules[i].PermittedIPs, rules[i].DeviceType = a.level, a.permitted, string(a.typ)
			}
			lab.Cache.Put(rules[i])
		}
		return lab, rules, nil
	}
	ts := stamp(1, 0, 0)
	var flat []*packet.Packet
	for _, ops := range in.ops {
		flat = append(flat, ops...)
	}

	// Misses: every distinct flow once through a fresh table.
	var miss time.Duration
	var missN int
	var lab *netsim.Lab
	var rules []*sdn.EnforcementRule
	for start := time.Now(); lab == nil || (missN < sc.probeCalls && time.Since(start) < sc.probeFor); {
		var err error
		if lab, rules, err = newLab(); err != nil {
			return err
		}
		sw := lab.Net.Switch()
		t0 := time.Now()
		for _, pk := range flat {
			sw.Process(pk, ts)
		}
		miss += time.Since(t0)
		missN += len(flat)
	}
	m["sdn.process_miss_ns"] = float64(miss) / float64(missN)

	// The last lab's table now holds every probe flow: all hits.
	sw := lab.Net.Switch()
	c := sc.probe(func(i int) { sw.Process(flat[i%len(flat)], ts) })
	m["sdn.process_hit_ns"] = c.ns
	c = sc.probe(func(i int) { lab.Cache.Put(rules[i%len(rules)]) })
	m["sdn.rule_put_ns"] = c.ns

	// Grow the table to the workload's size with flows of MACs outside
	// the probe set, then invalidate probe devices: each call scans the
	// whole table and removes one device's flows, which are put back
	// untimed.
	table := sw.Table()
	if pl := r.pool; pl != nil {
		for _, d := range pl.devs[len(in.devs):] {
			if table.Len() >= liveFlows {
				break
			}
			for _, f := range d.ops {
				if pk, err := packet.Decode(f); err == nil {
					sw.Process(pk, ts)
				}
			}
		}
	}
	var inval time.Duration
	var invalN int
	for start := time.Now(); invalN < sc.probeCalls && time.Since(start) < sc.probeFor; invalN++ {
		k := invalN % len(in.devs)
		t0 := time.Now()
		sw.InvalidateDevice(in.devs[k].mac)
		inval += time.Since(t0)
		for _, pk := range in.ops[k] {
			sw.Process(pk, ts)
		}
	}
	m["sdn.invalidate_ns"] = float64(inval) / float64(invalN)
	return nil
}

// probeStore times journal appends on a store of its own inside the
// run's output directory, so it pays the same filesystem's fsync: the
// routine append the gateway makes per capture and assessment (fsynced
// every DefaultSyncEvery), and the durable one a removal makes.
func (r *run) probeStore(in *probeInputs, m map[string]float64) error {
	sc := r.cfg.sc
	dir := filepath.Join(r.cfg.outDir, fmt.Sprintf("probe-store-%s-%d", r.wl.Name, r.cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("probe: store: %w", err)
	}
	var appendErr error
	at := stamp(1, 0, 0)
	event := func(kind store.EventKind) func(int) {
		return func(i int) {
			if _, err := st.Append(store.Event{Kind: kind, MAC: in.devs[i%len(in.devs)].mac, At: at, FirstSeen: at}); err != nil {
				appendErr = err
			}
		}
	}
	c := sc.probe(event(store.EvCaptureStarted))
	m["store.append_routine_us"] = us(c.ns)
	c = sc.probe(event(store.EvRemoved))
	m["store.append_durable_us"] = us(c.ns)
	if err := st.Close(); err != nil {
		return fmt.Errorf("probe: store: %w", err)
	}
	if appendErr != nil {
		return fmt.Errorf("probe: store append: %w", appendErr)
	}
	return nil
}
