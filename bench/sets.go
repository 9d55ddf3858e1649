package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Repeatability tooling: the -json result file, the spread table of
// -sets, and the row-per-pairing judgement of -compare.

// runRecord is one run in a result file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]value   `json:"metrics"`
	Info      map[string]float64 `json:"info"`
	Notes     []string           `json:"notes,omitempty"`
}

type resultFile struct {
	Env  envInfo     `json:"env"`
	Runs []runRecord `json:"runs"`
}

func (res *result) record() runRecord {
	return runRecord{
		Workload: res.Workload, Seed: res.Seed, Trace: res.Trace,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: res.Metrics, Info: res.Info, Notes: res.Notes,
	}
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pairing is one metric on one workload.
type pairing struct{ workload, metric string }

// series groups the runs' values by pairing, in workload then metric order.
func series(runs []runRecord) (map[pairing][]float64, []pairing) {
	vals := make(map[pairing][]float64)
	var order []pairing
	for _, w := range workloads {
		seen := make(map[string]bool)
		for _, run := range runs {
			if run.Workload != w.Name {
				continue
			}
			for _, name := range sortedKeys(run.Metrics) {
				k := pairing{w.Name, name}
				vals[k] = append(vals[k], run.Metrics[name].Value)
				if !seen[name] {
					seen[name] = true
					order = append(order, k)
				}
			}
		}
	}
	return vals, order
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

func defOf(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d, false
		}
	}
	return metricDef{}, false
}

// printSpread prints, for every pairing the sets measured, the median,
// the quartiles and the spread, and marks a spread above the bound.
func printSpread(w io.Writer, runs []runRecord) {
	vals, order := series(runs)
	fmt.Fprintf(w, "\n%-17s %-34s %3s %14s %14s %14s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, k := range order {
		v := vals[k]
		q1, q3 := quartiles(v)
		d, e2e := defOf(k.metric)
		bound, note := "", ""
		if e2e {
			bound = fmt.Sprintf("%.2f", d.Bound)
			if spread(v) > d.Bound {
				note = "  spread above bound"
			}
		}
		fmt.Fprintf(w, "%-17s %-34s %3d %14.4f %14.4f %14.4f %8.4f %6s%s\n", k.workload, k.metric, len(v), median(v), q1, q3, spread(v), bound, note)
	}
}

// compareFiles judges b against a, one row per pairing. A metric is
// worse by the share its median moved in its bad direction. With a bound
// (end-to-end metrics): "regressed" beyond the bound, "unresolved" when
// the runs of either side spread wider than the bound — unless every run
// of b reads better than every run of a — and "ok" otherwise. A metric
// is never reported unchanged on runs that could not have shown a change.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if a.Env.Cores != b.Env.Cores || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: %s ran on %d cores (GOMAXPROCS %d), %s on %d (GOMAXPROCS %d)",
			pathA, a.Env.Cores, a.Env.GOMAXPROCS, pathB, b.Env.Cores, b.Env.GOMAXPROCS)
	}
	va, order := series(a.Runs)
	vb, _ := series(b.Runs)
	fmt.Fprintf(w, "%-17s %-34s %14s %14s %9s %6s %8s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "spread", "verdict")
	for _, k := range order {
		xa, xb := va[k], vb[k]
		if len(xb) == 0 {
			continue
		}
		d, e2e := defOf(k.metric)
		ma, mb := median(xa), median(xb)
		worse := ratio(mb-ma, ma)
		if d.Better == "higher" {
			worse = -worse
		}
		widest := spread(xa)
		if s := spread(xb); s > widest {
			widest = s
		}
		bound, verdict := "", ""
		if e2e {
			bound = fmt.Sprintf("%.2f", d.Bound)
			switch {
			case widest > d.Bound && !allBetter(xa, xb, d.Better):
				verdict = "unresolved (spread above bound)"
			case worse > d.Bound:
				verdict = "REGRESSED"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "%-17s %-34s %14.4f %14.4f %+8.1f%% %6s %8.4f  %s\n", k.workload, k.metric, ma, mb, 100*worse, bound, widest, verdict)
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	minA, maxA := quantileF(a, 0), quantileF(a, 1)
	minB, maxB := quantileF(b, 0), quantileF(b, 1)
	if better == "higher" {
		return minB > maxA
	}
	return maxB < minA
}
