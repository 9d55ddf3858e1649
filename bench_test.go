package iotsentinel

// Benchmarks, one per table and figure of the paper's evaluation
// (Sect. VI). The report package (cmd/benchreport) renders the actual
// tables; these testing.B benches regenerate each experiment's core
// measurement so `go test -bench=.` exercises every code path the
// paper reports on and produces comparable per-operation numbers.

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/editdist"
	"iotsentinel/internal/eval"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/netsim"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/report"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/sdn/openflow"
)

// Shared fixtures, built once: the reference dataset, a fully trained
// 27-type identifier, and probe fingerprints.
var (
	benchOnce    sync.Once
	benchDataset map[core.TypeID][]fingerprint.Fingerprint
	benchID      *core.Identifier
	benchProbes  []fingerprint.Fingerprint
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		raw := devices.GenerateDataset(20, 1)
		benchDataset = make(map[core.TypeID][]fingerprint.Fingerprint, len(raw))
		for k, v := range raw {
			benchDataset[core.TypeID(k)] = v
		}
		id, err := core.Train(benchDataset, core.Config{Seed: 42})
		if err != nil {
			panic(err)
		}
		benchID = id
		probesRaw := devices.GenerateDataset(2, 99)
		for _, fps := range probesRaw {
			benchProbes = append(benchProbes, fps...)
		}
	})
}

// BenchmarkFig5Identification runs one stratified cross-validation pass
// over the 540-fingerprint dataset — the Fig 5 experiment (scaled to
// one repeat per op; cmd/benchreport runs the full 10x10 protocol).
func BenchmarkFig5Identification(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := eval.CrossValidate(benchDataset, eval.CVConfig{
			Folds: 10, Repeats: 1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Confusion aggregates the sibling-group confusion
// matrix from one cross-validation pass (Table III).
func BenchmarkTable3Confusion(b *testing.B) {
	res, err := report.Fig5(report.Options{Captures: 10, Folds: 5, Repeats: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := report.Table3(res); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkClassifySingle measures one Random Forest classification —
// Table IV row 1 (paper: 0.014 ms on a laptop).
func BenchmarkClassifySingle(b *testing.B) {
	benchSetup(b)
	fp := benchProbes[0]
	types := benchID.Types()
	n := len(types)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ClassifyOnly runs all 27 classifiers; dividing in reporting
		// would hide allocs, so benchmark the bank and report per-op
		// time for one classifier as bank/27 in EXPERIMENTS.md.
		_ = benchID.ClassifyOnly(fp)
	}
	_ = n
}

// BenchmarkEditDistanceSingle measures one Damerau-Levenshtein
// fingerprint comparison — Table IV row 2 (paper: 23.4 ms).
func BenchmarkEditDistanceSingle(b *testing.B) {
	benchSetup(b)
	a, c := benchProbes[0].F, benchProbes[1].F
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = editdist.Normalized(a, c)
	}
}

// BenchmarkFingerprintExtraction measures building F and F′ from a
// packet-vector sequence — Table IV row 3 (paper: 0.85 ms).
func BenchmarkFingerprintExtraction(b *testing.B) {
	benchSetup(b)
	caps := devices.GenerateCaptures(devices.Catalog()[0], 1, 5)
	pkts := caps[0].Packets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fingerprint.FromPackets(pkts)
	}
}

// BenchmarkTypeIdentification measures one complete identification
// (classifier bank + discrimination when needed) — Table IV bottom
// (paper: 157.7 ms).
func BenchmarkTypeIdentification(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = benchID.Identify(benchProbes[i%len(benchProbes)])
	}
}

// BenchmarkTable5LatencyPing measures one enforced round trip through
// the lab network — the Table V measurement primitive.
func BenchmarkTable5LatencyPing(b *testing.B) {
	lab, err := netsim.NewLab(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Net.Ping("D1", "D4"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Overhead derives the filtering-overhead summary
// (Table VI) once per op.
func BenchmarkTable6Overhead(b *testing.B) {
	opts := report.Options{LatencyIterations: 15, Seed: 3}
	for i := 0; i < b.N; i++ {
		if _, err := report.Table6(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aLatencyUnderFlows measures a round trip with 150
// concurrent background flows installed (Fig 6a's right edge).
func BenchmarkFig6aLatencyUnderFlows(b *testing.B) {
	lab, err := netsim.NewLab(1)
	if err != nil {
		b.Fatal(err)
	}
	lab.Net.SetBackgroundFlows(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Net.Ping("D1", "D2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6bCPUSweep evaluates the CPU-utilization curve across the
// 0..150 flow range (Fig 6b).
func BenchmarkFig6bCPUSweep(b *testing.B) {
	lab, err := netsim.NewLab(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for flows := 0; flows <= 150; flows += 30 {
			lab.Net.SetBackgroundFlows(flows)
			_ = lab.Net.CPUUtilization()
		}
	}
}

// BenchmarkFig6cRuleInstall measures enforcement-rule insertion into
// the hash cache — the operation whose memory growth Fig 6c plots.
func BenchmarkFig6cRuleInstall(b *testing.B) {
	cache := sdn.NewRuleCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac := packet.MAC{0x02, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i), 1}
		cache.Put(&sdn.EnforcementRule{DeviceMAC: mac, Level: sdn.Strict})
	}
}

// BenchmarkRuleCacheLookup measures the O(1) per-flow rule lookup with
// 20 000 rules installed — the property that keeps Fig 6a flat.
func BenchmarkRuleCacheLookup(b *testing.B) {
	cache := sdn.NewRuleCache()
	for i := 0; i < 20000; i++ {
		mac := packet.MAC{0x02, 0xee, byte(i >> 16), byte(i >> 8), byte(i), 0}
		cache.Put(&sdn.EnforcementRule{DeviceMAC: mac, Level: sdn.Strict})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac := packet.MAC{0x02, 0xee, byte(i % 20000 >> 16), byte(i % 20000 >> 8), byte(i % 20000), 0}
		if _, ok := cache.Get(mac); !ok {
			b.Fatal("rule missing")
		}
	}
}

// BenchmarkSwitchFastPath measures the per-packet flow-table hit cost,
// the fast path behind Table V's "with filtering" column.
func BenchmarkSwitchFastPath(b *testing.B) {
	lab, err := netsim.NewLab(1)
	if err != nil {
		b.Fatal(err)
	}
	d1, err := lab.Net.Host("D1")
	if err != nil {
		b.Fatal(err)
	}
	d4, err := lab.Net.Host("D4")
	if err != nil {
		b.Fatal(err)
	}
	pk := packet.NewICMPEcho(d1.MAC, d4.MAC, d1.IP, d4.IP, 56)
	now := time.Unix(0, 0)
	lab.Net.Switch().Process(pk, now) // install the flow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.Net.Switch().Process(pk, now)
	}
}

// BenchmarkTrainIdentifier measures training the full 27-classifier
// bank, the operational cost of onboarding a new IoTSSP model.
func BenchmarkTrainIdentifier(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(benchDataset, core.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddType measures the incremental-learning path: WithType
// training one new classifier into the next bank without touching the
// existing one. The name predates WithType; it is kept so archived
// figures stay comparable.
func BenchmarkAddType(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	newFPs := benchDataset["Aria"]
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		partial := make(map[core.TypeID][]fingerprint.Fingerprint, len(benchDataset)-1)
		for k, v := range benchDataset {
			if k != "Aria" {
				partial[k] = v
			}
		}
		id, err := core.Train(partial, core.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := id.WithType("Aria", newFPs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadIdentifier measures reading the 27-type bank back from
// its model file: what a warm boot pays instead of training, and what
// every gateway pays for a pushed bank.
func BenchmarkLoadIdentifier(b *testing.B) {
	benchSetup(b)
	var model bytes.Buffer
	if err := benchID.Save(&model); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadIdentifier(bytes.NewReader(model.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(model.Len()), "file-B")
}

// benchWorkerSweep returns the worker counts the parallel benchmarks
// sweep: 1 (sequential baseline), then powers of two up to GOMAXPROCS.
func benchWorkerSweep() []int {
	sweep := []int{1}
	max := runtime.GOMAXPROCS(0)
	for w := 2; w < max; w *= 2 {
		sweep = append(sweep, w)
	}
	if max > 1 {
		sweep = append(sweep, max)
	}
	return sweep
}

// BenchmarkTrainParallel measures training the full 27-classifier bank
// at each worker count. The trained models are bit-identical across
// the sweep (hash-derived per-type seeds), so the ratio between the
// workers=1 and workers=GOMAXPROCS rows is pure scaling.
func BenchmarkTrainParallel(b *testing.B) {
	benchSetup(b)
	for _, w := range benchWorkerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(benchDataset, core.Config{Seed: 42, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIdentifyBatch measures draining a queue of pending
// setup-phase fingerprints through the 27-type bank: the sequential
// per-device Identify baseline first, then IdentifyBatch across the
// worker sweep. Each op processes the whole probe set, so ns/op is
// directly comparable across rows; fp/s reports the resulting
// identification throughput.
func BenchmarkIdentifyBatch(b *testing.B) {
	benchSetup(b)
	restore := func(b *testing.B) {
		b.Helper()
		if err := benchID.ApplyRuntime(0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("sequential-identify", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, fp := range benchProbes {
				_ = benchID.Identify(fp)
			}
		}
		b.ReportMetric(float64(b.N*len(benchProbes))/b.Elapsed().Seconds(), "fp/s")
	})
	for _, w := range benchWorkerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			if err := benchID.ApplyRuntime(w, 0); err != nil {
				b.Fatal(err)
			}
			defer restore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = benchID.IdentifyBatch(benchProbes)
			}
			b.ReportMetric(float64(b.N*len(benchProbes))/b.Elapsed().Seconds(), "fp/s")
		})
	}
}

// BenchmarkIdentifySharedBank measures many gateway goroutines calling
// Identify on one shared bank — the serving-path contention profile —
// across a b.SetParallelism sweep. Each call scans the bank on its own
// goroutine, so the callers provide all the parallelism, as they would
// in a loaded gateway.
func BenchmarkIdentifySharedBank(b *testing.B) {
	benchSetup(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.SetParallelism(p)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					_ = benchID.Identify(benchProbes[i%len(benchProbes)])
					i++
				}
			})
		})
	}
}

// BenchmarkRemotePacketIn measures a packet-in round trip over the
// OpenFlow-style TCP control channel — the per-flow cost of the
// paper's second deployment (controller on a separate machine).
func BenchmarkRemotePacketIn(b *testing.B) {
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.MustParsePrefix("192.168.0.0/16"))
	srv := openflow.NewServer(ctrl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := openflow.Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	key := packet.FlowKey{
		SrcMAC: packet.MAC{2, 1, 1, 1, 1, 1},
		DstMAC: packet.MAC{2, 2, 2, 2, 2, 2},
		SrcIP:  netip.MustParseAddr("192.168.1.10"),
		DstIP:  netip.MustParseAddr("192.168.1.11"),
		Proto:  packet.TransportTCP, SrcPort: 40000, DstPort: 443,
		Ethertype: packet.EtherTypeIPv4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := client.PacketIn(key, time.Unix(0, 0))
		if dec.Action != sdn.ActionForward {
			b.Fatalf("decision: %+v", dec)
		}
	}
}
