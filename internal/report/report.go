// Package report regenerates every table and figure of the paper's
// evaluation section (Sect. VI) against the synthetic substrate:
//
//	Fig 5    — per-device-type identification accuracy
//	Table III— confusion matrix of the 10 low-accuracy device-types
//	Table IV — identification timing breakdown
//	Table V  — latency with/without filtering
//	Table VI — filtering overhead (latency, CPU, memory)
//	Fig 6a   — latency vs concurrent flows
//	Fig 6b   — CPU utilization vs concurrent flows
//	Fig 6c   — memory consumption vs enforcement rules
//
// plus the ablation studies DESIGN.md commits to. Each experiment
// returns structured results and renders a plain-text report, so the
// same code drives cmd/benchreport and the testing.B benchmarks.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/eval"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// Options control experiment scale. The zero value reproduces the
// paper's protocol (20 captures/type, 10-fold CV, 10 repeats).
type Options struct {
	// Captures is the number of setup captures per device-type.
	Captures int
	// Folds and Repeats control cross-validation.
	Folds   int
	Repeats int
	// Seed drives all randomness.
	Seed int64
	// LatencyIterations is the per-pair ping count for Table V.
	LatencyIterations int
	// Identifier overrides pipeline parameters (ablations).
	Identifier core.Config
}

func (o Options) normalize() Options {
	if o.Captures <= 0 {
		o.Captures = 20
	}
	if o.Folds <= 0 {
		o.Folds = 10
	}
	if o.Repeats <= 0 {
		o.Repeats = 10
	}
	if o.LatencyIterations <= 0 {
		o.LatencyIterations = 15
	}
	return o
}

// dataset builds the labelled fingerprint dataset for the options.
func dataset(o Options) map[core.TypeID][]fingerprint.Fingerprint {
	raw := devices.GenerateDataset(o.Captures, o.Seed)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint, len(raw))
	for k, v := range raw {
		ds[core.TypeID(k)] = v
	}
	return ds
}

// Fig5Result is the per-type accuracy experiment outcome.
type Fig5Result struct {
	// Order is the paper's Fig 5 x-axis order (catalog order).
	Order []core.TypeID
	// Accuracy is the per-type correct-identification ratio.
	Accuracy map[core.TypeID]float64
	// Global is the overall ratio (paper: 0.815).
	Global float64
	// MultiMatchRate and AvgEditDistances support Table IV context.
	MultiMatchRate   float64
	AvgEditDistances float64
	// CV holds the full cross-validation output (confusion matrix).
	CV *eval.CVResult
}

// Fig5 runs the identification accuracy experiment.
func Fig5(o Options) (*Fig5Result, error) {
	o = o.normalize()
	ds := dataset(o)
	cv, err := eval.CrossValidate(ds, eval.CVConfig{
		Folds:      o.Folds,
		Repeats:    o.Repeats,
		Seed:       o.Seed + 1,
		Identifier: o.Identifier,
	})
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	res := &Fig5Result{
		Accuracy:         make(map[core.TypeID]float64),
		Global:           cv.Confusion.Global(),
		MultiMatchRate:   cv.MultiMatchRate,
		AvgEditDistances: cv.AvgEditDistances,
		CV:               cv,
	}
	for _, p := range devices.Catalog() {
		t := core.TypeID(p.ID)
		res.Order = append(res.Order, t)
		res.Accuracy[t] = cv.Confusion.Accuracy(t)
	}
	return res, nil
}

// Render formats the Fig 5 report.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5 — Ratio of correct identification for 27 device-types\n")
	fmt.Fprintf(&b, "%-20s %s\n", "device-type", "accuracy")
	for _, t := range r.Order {
		fmt.Fprintf(&b, "%-20s %.2f %s\n", t, r.Accuracy[t], bar(r.Accuracy[t], 40))
	}
	fmt.Fprintf(&b, "\nglobal accuracy: %.3f   (paper: 0.815)\n", r.Global)
	fmt.Fprintf(&b, "multi-match rate: %.0f%%   (paper: 55%%)\n", r.MultiMatchRate*100)
	fmt.Fprintf(&b, "avg edit distances per identification: %.1f   (paper: ~7)\n", r.AvgEditDistances)
	return b.String()
}

// ConfusedDeviceOrder is the paper's Table III device numbering.
var ConfusedDeviceOrder = []core.TypeID{
	"D-LinkSwitch", "D-LinkWaterSensor", "D-LinkSiren", "D-LinkSensor",
	"TP-LinkPlugHS110", "TP-LinkPlugHS100",
	"EdimaxPlug1101W", "EdimaxPlug2101W",
	"SmarterCoffee", "iKettle2",
}

// Table3 renders the confusion matrix for the 10 low-accuracy types.
func Table3(r *Fig5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — Confusion matrix for the 10 sibling device-types\n")
	fmt.Fprintf(&b, "(rows: actual, columns: predicted; numbers are prediction counts)\n\n")
	fmt.Fprintf(&b, "%-18s", "A\\P")
	for i := range ConfusedDeviceOrder {
		fmt.Fprintf(&b, "%6d", i+1)
	}
	fmt.Fprintf(&b, "%7s\n", "other")
	for i, actual := range ConfusedDeviceOrder {
		fmt.Fprintf(&b, "%2d %-15s", i+1, truncate(string(actual), 15))
		row := r.CV.Confusion[actual]
		total := 0
		inTable := 0
		for _, n := range row {
			total += n
		}
		for _, predicted := range ConfusedDeviceOrder {
			n := row[predicted]
			inTable += n
			fmt.Fprintf(&b, "%6d", n)
		}
		fmt.Fprintf(&b, "%7d\n", total-inTable)
	}
	return b.String()
}

// Table4Result is the timing experiment outcome.
type Table4Result struct {
	Timing     eval.Timing
	Extraction eval.Stat
	NumTypes   int
}

// Table4 measures the identification timing breakdown on a full
// 27-type identifier.
func Table4(o Options) (*Table4Result, error) {
	o = o.normalize()
	ds := dataset(o)
	cfg := o.Identifier
	cfg.Seed = o.Seed + 2
	id, err := core.Train(ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("table4: %w", err)
	}
	// Fresh probes so timing reflects unseen fingerprints.
	probesRaw := devices.GenerateDataset(4, o.Seed+3)
	var probes []fingerprint.Fingerprint
	for _, v := range probesRaw {
		probes = append(probes, v...)
	}
	timing := eval.MeasureTiming(id, probes)
	extraction := eval.MeasureExtraction(func() fingerprint.Fingerprint {
		return fingerprint.FromPacked(probes[0].F)
	}, 200)
	return &Table4Result{Timing: timing, Extraction: extraction, NumTypes: id.NumTypes()}, nil
}

// Render formats the Table IV report.
func (r *Table4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — Time consumption for device-type identification\n")
	fmt.Fprintf(&b, "(this substrate is a modern CPU; the paper measured a laptop running\n")
	fmt.Fprintf(&b, "Weka, so absolute numbers differ — the ordering is the result)\n\n")
	row := func(name string, s eval.Stat) {
		fmt.Fprintf(&b, "%-38s %12s (±%s)  n=%d\n", name, fmtDur(s.Mean), fmtDur(s.StdDev), s.N)
	}
	row("1 classification (Random Forest)", r.Timing.SingleClassify)
	row("1 discrimination (edit distance)", r.Timing.SingleEditDist)
	row("fingerprint extraction", r.Extraction)
	row(fmt.Sprintf("%d classifications (full bank)", r.NumTypes), r.Timing.FullClassifyBank)
	row("discriminations per identification", r.Timing.Discriminations)
	row("type identification (total)", r.Timing.TypeIdentify)
	fmt.Fprintf(&b, "\navg edit-distance computations when discriminating: %.1f\n", r.Timing.AvgDiscrimination)
	return b.String()
}

func bar(v float64, width int) string {
	n := int(v * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
	}
}

// FeatureImportanceResult ranks the 23 Table I features by aggregate
// Gini importance across the trained classifier bank.
type FeatureImportanceResult struct {
	// Names and Weights are parallel, sorted by descending weight.
	Names   []string
	Weights []float64
}

// FeatureImportance trains a full identifier and aggregates feature
// importance — an analysis the paper motivates (which header features
// carry the device-type signal) but does not tabulate.
func FeatureImportance(o Options) (*FeatureImportanceResult, error) {
	o = o.normalize()
	cfg := o.Identifier
	cfg.Seed = o.Seed + 4
	id, err := core.Train(dataset(o), cfg)
	if err != nil {
		return nil, fmt.Errorf("feature importance: %w", err)
	}
	imp := id.FeatureImportance()
	type pair struct {
		name string
		w    float64
	}
	pairs := make([]pair, features.Count)
	for i := range imp {
		pairs[i] = pair{name: features.Names[i], w: imp[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].w > pairs[b].w })
	res := &FeatureImportanceResult{}
	for _, p := range pairs {
		res.Names = append(res.Names, p.name)
		res.Weights = append(res.Weights, p.w)
	}
	return res, nil
}

// Render formats the importance ranking.
func (r *FeatureImportanceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Feature importance — aggregate Gini importance of the 23 packet features\n\n")
	for i, name := range r.Names {
		fmt.Fprintf(&b, "%2d %-18s %6.3f %s\n", i+1, name, r.Weights[i], bar(r.Weights[i]*2, 40))
	}
	return b.String()
}

// UnknownResult is the leave-one-type-out unknown-device experiment.
type UnknownResult struct {
	Detection *eval.UnknownDetection
}

// Unknown runs the leave-one-type-out experiment: the paper's claim
// that a new device-type is rejected by all classifiers, quantified.
func Unknown(o Options) (*UnknownResult, error) {
	o = o.normalize()
	det, err := eval.LeaveOneOut(dataset(o), eval.LeaveOneOutConfig{
		Identifier: o.Identifier,
		Siblings:   devices.SiblingGroups(),
		Seed:       o.Seed + 6,
	})
	if err != nil {
		return nil, fmt.Errorf("unknown: %w", err)
	}
	return &UnknownResult{Detection: det}, nil
}

// Render formats the unknown-device report.
func (r *UnknownResult) Render() string {
	var b strings.Builder
	d := r.Detection
	fmt.Fprintf(&b, "Unknown-device detection — leave-one-type-out over 27 types\n\n")
	fmt.Fprintf(&b, "held-out fingerprints rejected by all classifiers: %5.1f%%\n", d.RejectRate*100)
	fmt.Fprintf(&b, "absorbed by a same-vendor sibling (harmless):      %5.1f%%\n", d.MisacceptInGroup*100)
	fmt.Fprintf(&b, "absorbed by an unrelated type (bad):               %5.1f%%\n", d.MisacceptOutGroup*100)
	fmt.Fprintf(&b, "\nper held-out type reject rate:\n")
	for _, t := range d.Types() {
		fmt.Fprintf(&b, "%-20s %5.2f %s\n", t, d.PerType[t], bar(d.PerType[t], 30))
	}
	return b.String()
}

// TradeoffResult is the known-accuracy vs unknown-rejection sweep.
type TradeoffResult struct {
	Points []eval.ThresholdTradeoff
}

// Tradeoff runs the acceptance-threshold operating-curve experiment.
func Tradeoff(o Options) (*TradeoffResult, error) {
	o = o.normalize()
	pts, err := eval.UnknownSweep(dataset(o), nil, devices.SiblingGroups(), o.Folds, o.Seed+7)
	if err != nil {
		return nil, fmt.Errorf("tradeoff: %w", err)
	}
	return &TradeoffResult{Points: pts}, nil
}

// Render formats the operating curve.
func (r *TradeoffResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Operating curve — known-type accuracy vs unknown-type rejection\n")
	fmt.Fprintf(&b, "(acceptance threshold sweep; pick the point matching deployment risk)\n\n")
	fmt.Fprintf(&b, "%10s %16s %16s\n", "threshold", "known accuracy", "unknown reject")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.1f %16.3f %16.3f\n", p.Threshold, p.KnownAccuracy, p.UnknownReject)
	}
	return b.String()
}
