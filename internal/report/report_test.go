package report

import (
	"strings"
	"testing"
)

// smallOpts keeps test runtime reasonable: fewer captures, folds and
// repeats than the paper's full protocol.
func smallOpts() Options {
	return Options{Captures: 10, Folds: 5, Repeats: 1, Seed: 3, LatencyIterations: 8}
}

func TestFig5(t *testing.T) {
	res, err := Fig5(smallOpts())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(res.Order) != 27 {
		t.Fatalf("order has %d types", len(res.Order))
	}
	if res.Global < 0.6 || res.Global > 1 {
		t.Errorf("global = %.3f", res.Global)
	}
	out := res.Render()
	for _, want := range []string{"Fig 5", "global accuracy", "Aria", "iKettle2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable3(t *testing.T) {
	res, err := Fig5(smallOpts())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	out := Table3(res)
	for _, want := range []string{"Table III", "D-LinkSwitch", "iKettle2", "other"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// Row counts must sum to the per-type evaluation count.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 13 {
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestTable4(t *testing.T) {
	res, err := Table4(smallOpts())
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if res.NumTypes != 27 {
		t.Errorf("NumTypes = %d", res.NumTypes)
	}
	if res.Timing.TypeIdentify.Mean <= 0 {
		t.Error("no identification timing")
	}
	// Table IV's central shape claim: a single classification is much
	// cheaper than a single edit-distance discrimination.
	if res.Timing.SingleEditDist.Mean > 0 &&
		res.Timing.SingleClassify.Mean > res.Timing.SingleEditDist.Mean {
		t.Errorf("classification (%v) slower than edit distance (%v)",
			res.Timing.SingleClassify.Mean, res.Timing.SingleEditDist.Mean)
	}
	out := res.Render()
	if !strings.Contains(out, "Table IV") || !strings.Contains(out, "27 classifications") {
		t.Errorf("render: %s", out)
	}
}

func TestTable5(t *testing.T) {
	res, err := Table5(smallOpts())
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if len(res.WithFiltering) != 9 || len(res.WithoutFiltering) != 9 {
		t.Fatalf("pairs = %d/%d", len(res.WithFiltering), len(res.WithoutFiltering))
	}
	// Shape: filtering adds little; every pair delivered all pings.
	for key, w := range res.WithFiltering {
		wo := res.WithoutFiltering[key]
		if w.Delivered != 8 || wo.Delivered != 8 {
			t.Errorf("%s: losses %d/%d", key, w.Lost, wo.Lost)
		}
		overhead := float64(w.Mean-wo.Mean) / float64(wo.Mean)
		if overhead < -0.10 || overhead > 0.15 {
			t.Errorf("%s: overhead %.1f%%", key, overhead*100)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Table V") || !strings.Contains(out, "Sremote") {
		t.Errorf("render: %s", out)
	}
}

func TestTable6(t *testing.T) {
	res, err := Table6(smallOpts())
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	// Table VI shape: small positive overheads.
	for name, v := range map[string]float64{
		"latency-d1d2": res.LatencyOverheadD1D2,
		"latency-d1d3": res.LatencyOverheadD1D3,
		"cpu":          res.CPUOverhead,
		"memory":       res.MemoryOverhead,
	} {
		if v < -0.05 || v > 0.20 {
			t.Errorf("%s overhead = %.2f%%, want small", name, v*100)
		}
	}
	if res.CPUOverhead <= 0 || res.MemoryOverhead <= 0 {
		t.Error("filtering must cost some CPU and memory")
	}
	out := res.Render()
	if !strings.Contains(out, "Table VI") {
		t.Errorf("render: %s", out)
	}
}

func TestFig6a(t *testing.T) {
	res, err := Fig6a(smallOpts())
	if err != nil {
		t.Fatalf("Fig6a: %v", err)
	}
	if len(res.Flows) != len(res.With) || len(res.Flows) != len(res.Without) {
		t.Fatalf("series lengths: %d/%d/%d", len(res.Flows), len(res.With), len(res.Without))
	}
	// Latency at 150 flows stays within ~30% of 20 flows (insignificant
	// increase, Fig 6a).
	first, last := res.With[0].Mean, res.With[len(res.With)-1].Mean
	if float64(last) > float64(first)*1.3 {
		t.Errorf("latency grew too much: %v -> %v", first, last)
	}
	if !strings.Contains(res.Render(), "Fig 6a") {
		t.Error("render missing header")
	}
}

func TestFig6b(t *testing.T) {
	res, err := Fig6b(smallOpts())
	if err != nil {
		t.Fatalf("Fig6b: %v", err)
	}
	// CPU grows monotonically with flows and stays in the Fig 6b band.
	for i := 1; i < len(res.With); i++ {
		if res.With[i] < res.With[i-1] {
			t.Errorf("CPU not monotone at %d flows", res.Flows[i])
		}
	}
	if res.With[0] < 30 || res.With[len(res.With)-1] > 60 {
		t.Errorf("CPU range %.1f..%.1f outside Fig 6b band", res.With[0], res.With[len(res.With)-1])
	}
	// Filtering costs slightly more CPU than no filtering at equal load.
	for i := range res.Flows {
		if res.With[i] <= res.Without[i] {
			t.Errorf("filtering CPU not higher at %d flows", res.Flows[i])
		}
	}
	if !strings.Contains(res.Render(), "Fig 6b") {
		t.Error("render missing header")
	}
}

func TestFig6c(t *testing.T) {
	res, err := Fig6c(smallOpts())
	if err != nil {
		t.Fatalf("Fig6c: %v", err)
	}
	// Memory grows linearly and stays below 100 MB at 20000 rules.
	last := res.With[len(res.With)-1]
	if last > 100 {
		t.Errorf("memory at 20000 rules = %.1f MB", last)
	}
	if res.With[0] >= last {
		t.Error("memory did not grow with rules")
	}
	// Linearity: midpoint within 10% of the average of endpoints.
	mid := res.With[len(res.With)/2]
	expect := (res.With[0] + last) / 2
	if mid < expect*0.9 || mid > expect*1.1 {
		t.Errorf("memory not linear: mid=%.1f expect~%.1f", mid, expect)
	}
	if res.EstimatedCacheBytes <= 0 {
		t.Error("estimated cache bytes missing")
	}
	if !strings.Contains(res.Render(), "Fig 6c") {
		t.Error("render missing header")
	}
}

func TestAblations(t *testing.T) {
	o := Options{Captures: 8, Folds: 4, Repeats: 1, Seed: 5}
	runs := []struct {
		name string
		fn   func(Options) (*AblationResult, error)
		want int
	}{
		{"forest-size", AblateForestSize, 4},
		{"neg-ratio", AblateNegativeRatio, 4},
		{"ref-count", AblateReferenceCount, 4},
		{"discrimination", AblateDiscrimination, 2},
		{"fingerprint-length", AblateFingerprintLength, 4},
	}
	for _, tt := range runs {
		t.Run(tt.name, func(t *testing.T) {
			res, err := tt.fn(o)
			if err != nil {
				t.Fatalf("%s: %v", tt.name, err)
			}
			if len(res.Points) != tt.want {
				t.Fatalf("points = %d, want %d", len(res.Points), tt.want)
			}
			for _, p := range res.Points {
				if p.Global <= 0 || p.Global > 1 {
					t.Errorf("%s: global = %.3f", p.Label, p.Global)
				}
			}
			if !strings.Contains(res.Render(), "Ablation") {
				t.Error("render missing header")
			}
		})
	}
}

func TestAblationFingerprintLengthImproves(t *testing.T) {
	// Longer F' must not be dramatically worse than very short F' —
	// and 2-packet fingerprints should lose accuracy vs 12.
	o := Options{Captures: 10, Folds: 5, Repeats: 1, Seed: 6}
	res, err := AblateFingerprintLength(o)
	if err != nil {
		t.Fatal(err)
	}
	short := res.Points[0].Global // packets=2
	full := res.Points[len(res.Points)-1].Global
	if full < short-0.05 {
		t.Errorf("full F' (%.3f) much worse than 2-packet F' (%.3f)", full, short)
	}
}

func TestFeatureImportance(t *testing.T) {
	res, err := FeatureImportance(smallOpts())
	if err != nil {
		t.Fatalf("FeatureImportance: %v", err)
	}
	if len(res.Names) != 23 || len(res.Weights) != 23 {
		t.Fatalf("lengths = %d/%d", len(res.Names), len(res.Weights))
	}
	sum := 0.0
	for i := 1; i < len(res.Weights); i++ {
		if res.Weights[i] > res.Weights[i-1] {
			t.Error("weights not sorted descending")
		}
	}
	for _, w := range res.Weights {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %v", sum)
	}
	// Packet size and the destination counter are the dominant
	// discriminators in this feature set.
	if res.Names[0] != "size" {
		t.Errorf("top feature = %q, expected size", res.Names[0])
	}
	if !strings.Contains(res.Render(), "Feature importance") {
		t.Error("render missing header")
	}
}

func TestRemoteController(t *testing.T) {
	res, err := RemoteController(smallOpts())
	if err != nil {
		t.Fatalf("RemoteController: %v", err)
	}
	if res.Samples <= 0 || res.LocalMean <= 0 || res.RemoteMean <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The TCP hop must cost more than the in-process call.
	if res.RemoteMean <= res.LocalMean {
		t.Errorf("remote (%v) not slower than local (%v)", res.RemoteMean, res.LocalMean)
	}
	// A p99 at or below its own samples' median is a mis-indexed
	// quantile. The median is the reference because one scheduler or GC
	// pause among the samples moves the mean, not the median.
	if res.LocalP99 <= res.LocalMedian || res.RemoteP99 <= res.RemoteMedian {
		t.Errorf("p99 not above the median: local %v vs %v, remote %v vs %v",
			res.LocalP99, res.LocalMedian, res.RemoteP99, res.RemoteMedian)
	}
	if !strings.Contains(res.Render(), "Remote controller") {
		t.Error("render missing header")
	}
}

func TestTradeoff(t *testing.T) {
	o := Options{Captures: 8, Folds: 4, Repeats: 1, Seed: 9}
	res, err := Tradeoff(o)
	if err != nil {
		t.Fatalf("Tradeoff: %v", err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Monotone expectations: unknown rejection grows with threshold.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.UnknownReject < first.UnknownReject {
		t.Errorf("unknown rejection fell with threshold: %.3f -> %.3f",
			first.UnknownReject, last.UnknownReject)
	}
	for _, p := range res.Points {
		if p.KnownAccuracy <= 0 || p.KnownAccuracy > 1 || p.UnknownReject < 0 || p.UnknownReject > 1 {
			t.Errorf("point out of range: %+v", p)
		}
	}
	if !strings.Contains(res.Render(), "Operating curve") {
		t.Error("render missing header")
	}
}

// TestFig6cMeasuresHeap: next to the rule cache's estimate, Fig 6c
// measures the heap a rule and a resident device hold.
func TestFig6cMeasuresHeap(t *testing.T) {
	res, err := Fig6c(smallOpts())
	if err != nil {
		t.Fatalf("Fig6c: %v", err)
	}
	if res.RuleHeapBytes <= 0 || res.RuleHeapBytes > 1024 {
		t.Errorf("measured %.0f B a rule", res.RuleHeapBytes)
	}
	if res.DeviceHeapBytes <= 0 || res.DeviceHeapBytes > 2048 {
		t.Errorf("measured %.0f B a resident device", res.DeviceHeapBytes)
	}
	out := res.Render()
	for _, want := range []string{"estimated (RuleCache.ApproxBytes)", "measured heap growth after GC", "resident device of 4 flows"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
