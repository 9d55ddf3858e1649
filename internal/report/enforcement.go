package report

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"iotsentinel/internal/netsim"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// latencyPairs is Table V's measurement matrix: source devices D1..D3
// against D4, Slocal and Sremote.
var latencyPairs = []struct{ src, dst string }{
	{"D1", "D4"}, {"D1", "Slocal"}, {"D1", "Sremote"},
	{"D2", "D4"}, {"D2", "Slocal"}, {"D2", "Sremote"},
	{"D3", "D4"}, {"D3", "Slocal"}, {"D3", "Sremote"},
}

// Table5Result holds latency stats for every pair in both modes.
type Table5Result struct {
	// WithFiltering and WithoutFiltering are keyed by "src->dst".
	WithFiltering    map[string]netsim.LatencyStat
	WithoutFiltering map[string]netsim.LatencyStat
	Iterations       int
}

// Table5 measures user-experienced latency with and without the
// enforcement mechanism (15 iterations per pair, per the paper).
func Table5(o Options) (*Table5Result, error) {
	o = o.normalize()
	res := &Table5Result{
		WithFiltering:    make(map[string]netsim.LatencyStat),
		WithoutFiltering: make(map[string]netsim.LatencyStat),
		Iterations:       o.LatencyIterations,
	}
	for _, filtering := range []bool{true, false} {
		lab, err := netsim.NewLab(o.Seed + 10)
		if err != nil {
			return nil, fmt.Errorf("table5: %w", err)
		}
		lab.Ctrl.SetFiltering(filtering)
		for _, pair := range latencyPairs {
			stat, err := lab.Net.MeasureLatency(pair.src, pair.dst, o.LatencyIterations)
			if err != nil {
				return nil, fmt.Errorf("table5: %s->%s: %w", pair.src, pair.dst, err)
			}
			key := pair.src + "->" + pair.dst
			if filtering {
				res.WithFiltering[key] = stat
			} else {
				res.WithoutFiltering[key] = stat
			}
		}
	}
	return res, nil
}

// Render formats the Table V report.
func (r *Table5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V — Latency (ms) experienced by users (%d iterations per pair)\n\n", r.Iterations)
	fmt.Fprintf(&b, "%-6s %-9s %22s %22s\n", "source", "dest", "filtering", "no filtering")
	for _, pair := range latencyPairs {
		key := pair.src + "->" + pair.dst
		w := r.WithFiltering[key]
		wo := r.WithoutFiltering[key]
		fmt.Fprintf(&b, "%-6s %-9s %12.1f (±%.1f) %14.1f (±%.1f)\n",
			pair.src, pair.dst, ms(w.Mean), ms(w.StdDev), ms(wo.Mean), ms(wo.StdDev))
	}
	return b.String()
}

// Table6Result holds the filtering-overhead summary.
type Table6Result struct {
	// LatencyOverheadD1D2 and LatencyOverheadD1D3 are relative latency
	// increases for the two device pairs the paper reports.
	LatencyOverheadD1D2 float64
	LatencyOverheadD1D3 float64
	// CPUOverhead and MemoryOverhead are relative resource increases
	// with filtering enabled.
	CPUOverhead    float64
	MemoryOverhead float64
}

// Table6 derives the overhead summary from fresh measurements.
func Table6(o Options) (*Table6Result, error) {
	o = o.normalize()
	measure := func(filtering bool, src, dst string) (netsim.LatencyStat, float64, float64, error) {
		lab, err := netsim.NewLab(o.Seed + 20)
		if err != nil {
			return netsim.LatencyStat{}, 0, 0, err
		}
		lab.Ctrl.SetFiltering(filtering)
		lab.Net.SetBackgroundFlows(100)
		seedRules(lab.Cache, 100)
		stat, err := lab.Net.MeasureLatency(src, dst, o.LatencyIterations)
		if err != nil {
			return netsim.LatencyStat{}, 0, 0, err
		}
		return stat, lab.Net.CPUUtilization(), lab.Net.MemoryMB(), nil
	}

	d12With, cpuWith, memWith, err := measure(true, "D1", "D2")
	if err != nil {
		return nil, fmt.Errorf("table6: %w", err)
	}
	d12Without, cpuWithout, memWithout, err := measure(false, "D1", "D2")
	if err != nil {
		return nil, fmt.Errorf("table6: %w", err)
	}
	d13With, _, _, err := measure(true, "D1", "D3")
	if err != nil {
		return nil, fmt.Errorf("table6: %w", err)
	}
	d13Without, _, _, err := measure(false, "D1", "D3")
	if err != nil {
		return nil, fmt.Errorf("table6: %w", err)
	}
	return &Table6Result{
		LatencyOverheadD1D2: rel(d12With.Mean, d12Without.Mean),
		LatencyOverheadD1D3: rel(d13With.Mean, d13Without.Mean),
		CPUOverhead:         (cpuWith - cpuWithout) / cpuWithout,
		MemoryOverhead:      (memWith - memWithout) / memWithout,
	}, nil
}

// Render formats the Table VI report.
func (r *Table6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI — Overhead due to filtering mechanism\n\n")
	fmt.Fprintf(&b, "%-20s %8s   (paper)\n", "case", "overhead")
	fmt.Fprintf(&b, "%-20s %+7.2f%%   (+5.84%%)\n", "D1D2 latency", r.LatencyOverheadD1D2*100)
	fmt.Fprintf(&b, "%-20s %+7.2f%%   (+0.71%%)\n", "D1D3 latency", r.LatencyOverheadD1D3*100)
	fmt.Fprintf(&b, "%-20s %+7.2f%%   (+0.63%%)\n", "CPU utilization", r.CPUOverhead*100)
	fmt.Fprintf(&b, "%-20s %+7.2f%%   (+7.6%%)\n", "memory usage", r.MemoryOverhead*100)
	return b.String()
}

// Fig6aResult is latency vs concurrent flows, both modes.
type Fig6aResult struct {
	Flows   []int
	With    []netsim.LatencyStat
	Without []netsim.LatencyStat
}

// Fig6a sweeps concurrent background flows (20..150) and measures
// D1-D2 latency with and without filtering.
func Fig6a(o Options) (*Fig6aResult, error) {
	o = o.normalize()
	res := &Fig6aResult{}
	for flows := 20; flows <= 150; flows += 10 {
		res.Flows = append(res.Flows, flows)
	}
	for _, filtering := range []bool{true, false} {
		lab, err := netsim.NewLab(o.Seed + 30)
		if err != nil {
			return nil, fmt.Errorf("fig6a: %w", err)
		}
		lab.Ctrl.SetFiltering(filtering)
		for _, flows := range res.Flows {
			lab.Net.SetBackgroundFlows(flows)
			stat, err := lab.Net.MeasureLatency("D1", "D2", o.LatencyIterations)
			if err != nil {
				return nil, fmt.Errorf("fig6a: %w", err)
			}
			if filtering {
				res.With = append(res.With, stat)
			} else {
				res.Without = append(res.Without, stat)
			}
		}
	}
	return res, nil
}

// Render formats the Fig 6a series.
func (r *Fig6aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6a — Latency (ms) vs concurrent flows (D1-D2)\n\n")
	fmt.Fprintf(&b, "%6s %14s %14s\n", "flows", "w/ filtering", "w/o filtering")
	for i, flows := range r.Flows {
		fmt.Fprintf(&b, "%6d %14.1f %14.1f\n", flows, ms(r.With[i].Mean), ms(r.Without[i].Mean))
	}
	return b.String()
}

// Fig6bResult is CPU utilization vs concurrent flows.
type Fig6bResult struct {
	Flows   []int
	With    []float64
	Without []float64
}

// Fig6b sweeps concurrent flows and reports gateway CPU utilization.
func Fig6b(o Options) (*Fig6bResult, error) {
	o = o.normalize()
	res := &Fig6bResult{}
	for flows := 0; flows <= 150; flows += 10 {
		res.Flows = append(res.Flows, flows)
	}
	for _, filtering := range []bool{true, false} {
		lab, err := netsim.NewLab(o.Seed + 40)
		if err != nil {
			return nil, fmt.Errorf("fig6b: %w", err)
		}
		lab.Ctrl.SetFiltering(filtering)
		for _, flows := range res.Flows {
			lab.Net.SetBackgroundFlows(flows)
			cpu := lab.Net.CPUUtilization()
			if filtering {
				res.With = append(res.With, cpu)
			} else {
				res.Without = append(res.Without, cpu)
			}
		}
	}
	return res, nil
}

// Render formats the Fig 6b series.
func (r *Fig6bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6b — CPU utilization (%%) vs concurrent flows\n\n")
	fmt.Fprintf(&b, "%6s %14s %14s\n", "flows", "w/ filtering", "w/o filtering")
	for i, flows := range r.Flows {
		fmt.Fprintf(&b, "%6d %14.1f %14.1f\n", flows, r.With[i], r.Without[i])
	}
	return b.String()
}

// Fig6cResult is memory consumption vs enforcement rules.
type Fig6cResult struct {
	Rules []int
	// With and Without are the modelled gateway memory in MB (the
	// paper's Java-stack constants plus EstimatedCacheBytes).
	With    []float64
	Without []float64
	// EstimatedCacheBytes is RuleCache.ApproxBytes at the largest rule
	// count, which counts 96 bytes a rule plus its strings and addresses.
	EstimatedCacheBytes int
	// RuleHeapBytes is measured: the live heap a rule cache of that many
	// rules holds, after a collection, per rule.
	RuleHeapBytes float64
	// DeviceHeapBytes is measured: the live heap the switch keeps per
	// resident device of residentFlows flows (its forwarding state and
	// traffic counters), after a collection, over one device per rule.
	DeviceHeapBytes float64
}

// residentFlows is the flows of a resident device in DeviceHeapBytes,
// to three destinations.
const residentFlows = 4

// Fig6c sweeps the enforcement-rule count (0..20000) and reports
// modelled gateway memory, the rule cache's estimated footprint, and the
// heap that rules and resident devices are measured to hold.
func Fig6c(o Options) (*Fig6cResult, error) {
	o = o.normalize()
	res := &Fig6cResult{}
	for rules := 0; rules <= 20000; rules += 2000 {
		res.Rules = append(res.Rules, rules)
	}
	for _, filtering := range []bool{true, false} {
		lab, err := netsim.NewLab(o.Seed + 50)
		if err != nil {
			return nil, fmt.Errorf("fig6c: %w", err)
		}
		lab.Ctrl.SetFiltering(filtering)
		installed := 0
		for _, rules := range res.Rules {
			seedRules(lab.Cache, rules-installed)
			installed = rules
			mb := lab.Net.MemoryMB()
			if filtering {
				res.With = append(res.With, mb)
			} else {
				res.Without = append(res.Without, mb)
			}
		}
		if filtering {
			res.EstimatedCacheBytes = lab.Cache.ApproxBytes()
		}
	}
	n := res.Rules[len(res.Rules)-1]
	res.RuleHeapBytes = heapGrowth(n, func() any {
		c := sdn.NewRuleCache()
		seedRules(c, n)
		return c
	})
	sw := sdn.NewSwitch(sdn.NewController(sdn.NewRuleCache(), netip.Prefix{}), time.Minute)
	res.DeviceHeapBytes = heapGrowth(n, func() any {
		residentDevices(sw, n)
		return sw
	})
	return res, nil
}

// heapGrowth is the live heap build leaves behind, a collection on
// either side, per one of n.
func heapGrowth(n int, build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// residentDevices sends n devices' first frames through sw, residentFlows
// flows each: one frame, re-addressed, so the frames cost nothing.
func residentDevices(sw *sdn.Switch, n int) {
	pk := packet.NewTCPSyn(packet.MAC{}, packet.MAC{0x02, 0xcc, 0, 0, 0, 0xfe}, netip.Addr{}, netip.Addr{}, 0, 443)
	now := time.Unix(0, 0)
	for d := 0; d < n; d++ {
		pk.SrcMAC = packet.MAC{0x02, 0xcd, byte(d >> 16), byte(d >> 8), byte(d), 0x7f}
		pk.SrcIP = netip.AddrFrom4([4]byte{10, byte(d >> 16), byte(d >> 8), byte(d)})
		for f := 0; f < residentFlows; f++ {
			pk.DstIP = netip.AddrFrom4([4]byte{52, 20, byte(f % 3), 1})
			pk.SrcPort = uint16(40000 + f)
			sw.Process(pk, now)
		}
	}
}

// Render formats the Fig 6c series.
func (r *Fig6cResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6c — Memory consumption (MB) vs enforcement rules\n\n")
	fmt.Fprintf(&b, "%8s %14s %14s\n", "rules", "w/ filtering", "w/o filtering")
	for i, rules := range r.Rules {
		fmt.Fprintf(&b, "%8d %14.1f %14.1f\n", rules, r.With[i], r.Without[i])
	}
	n := r.Rules[len(r.Rules)-1]
	fmt.Fprintf(&b, "\nGo rule cache at %d rules:\n", n)
	fmt.Fprintf(&b, "  estimated (RuleCache.ApproxBytes)  %6.2f MB  %4.0f B a rule\n",
		float64(r.EstimatedCacheBytes)/(1024*1024), float64(r.EstimatedCacheBytes)/float64(n))
	fmt.Fprintf(&b, "  measured heap growth after GC      %6.2f MB  %4.0f B a rule\n",
		r.RuleHeapBytes*float64(n)/(1024*1024), r.RuleHeapBytes)
	fmt.Fprintf(&b, "Switch forwarding state, measured heap growth after GC:\n")
	fmt.Fprintf(&b, "  %.0f B a resident device of %d flows (%.2f MB for %d devices)\n",
		r.DeviceHeapBytes, residentFlows, r.DeviceHeapBytes*float64(n)/(1024*1024), n)
	return b.String()
}

// seedRules installs n additional synthetic enforcement rules.
func seedRules(c *sdn.RuleCache, n int) {
	base := c.Len()
	for i := 0; i < n; i++ {
		k := base + i
		mac := packet.MAC{0x02, 0xcc, byte(k >> 16), byte(k >> 8), byte(k), 0x7f}
		c.Put(&sdn.EnforcementRule{
			DeviceMAC:  mac,
			Level:      sdn.Strict,
			DeviceType: "synthetic-device",
		})
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func rel(with, without time.Duration) float64 {
	if without == 0 {
		return 0
	}
	return float64(with-without) / float64(without)
}
