package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeScale is tiny inputs: every workload in a fraction of a second.
// Its numbers mean nothing, so only the tests can reach it.
var smokeScale = scale{
	devices:      270,
	fpPerProfile: 6,
	captures:     4,
	window:       32,
	churnRate:    8000,
	remoteRate:   250,
	rejoinAfter:  16,
	warm:         30 * time.Millisecond,
	setups:       1,
	probeCalls:   64,
	probeFor:     time.Millisecond,
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("the benchmark's contract: %v", err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesVocabulary is the drift guard: BENCHMARK.json and
// metrics.go list the same workloads and metrics, with the same units,
// directions and bounds.
func TestContractMatchesVocabulary(t *testing.T) {
	f := readContract(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, metrics.go %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := f.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), metrics.go %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	used := make(map[string]bool)
	check := func(list string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", list, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s] %s, metrics.go %s [%s] %s", list, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: name %q or unit %q is outside the contract's alphabet", list, d.Name, d.Unit)
			}
			if used[d.Name] {
				t.Errorf("%s: name %q is used twice", list, d.Name)
			}
			used[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has direction %q", list, d.Name, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: %s needs the same bound in (0, 0.25] in both files, metrics.go has %v", list, d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s has a bound; per-layer metrics have none", list, d.Name)
			case !bounded && d.Moves == "":
				t.Errorf("%s: %s does not say which end-to-end metric it is expected to move", list, d.Name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if !used["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestSmoke runs every workload at the smoke scale in both modes. Every
// metric the contract lists for the mode is emitted exactly once with
// its unit, nothing else is, the oracle passes and nothing failed.
func TestSmoke(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the benchmark needs GOMAXPROCS >= 2")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(config{workload: w.Name, seed: 1, seconds: 0.2, trace: trace, sc: smokeScale, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, failed %d of %d: %v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d listed", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s is not emitted", w.Name, trace, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, listed %q", w.Name, trace, d.Name, v.Unit, d.Unit)
				}
				// (At this scale the bank is smaller than what the runtime
				// frees between the two heap readings, so the sign of
				// heap_live_mb is not checked here.)
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0; it must never", w.Name, d.Name)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: the result line must have exactly correct, attempted, failed and metrics: %s", w.Name, line)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace_"+w.Name+".json")); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestGofmt keeps the benchmark's sources formatted.
func TestGofmt(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-formatted", name)
		}
	}
}

// resultsOf writes a result file whose runs give one metric of one
// workload the listed values.
func resultsOf(t *testing.T, metric string, vals ...float64) string {
	t.Helper()
	f := resultFile{Env: envInfo{Cores: 2, GOMAXPROCS: 2}}
	for _, v := range vals {
		f.Runs = append(f.Runs, runRecord{Workload: wlJoinStorm, Metrics: map[string]value{metric: {Value: v, Unit: "x"}}})
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := f.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareVerdicts pins the three judgements of -compare, in both
// directions of "better".
func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name, metric string
		a, b         []float64
		want         string
	}{
		{"same", "ops_per_s", steady, steady, "ok"},
		{"within bound", "ops_per_s", steady, []float64{90, 91, 89, 90, 92}, "ok"},
		{"rate fell", "ops_per_s", steady, []float64{60, 61, 59, 60, 62}, "REGRESSED"},
		{"rate rose", "ops_per_s", steady, []float64{160, 161, 159, 160, 162}, "ok"},
		{"heap grew", "heap_live_mb", steady, []float64{160, 161, 159, 160, 162}, "REGRESSED"},
		{"heap shrank", "heap_live_mb", steady, []float64{60, 61, 59, 60, 62}, "ok"},
		{"noisy, overlapping", "ops_per_s", steady, []float64{60, 140, 100, 80, 120}, "unresolved"},
		{"noisy, yet every run better", "ops_per_s", steady, []float64{200, 400, 300, 250, 350}, "ok"},
		{"noisy and every run worse", "ops_per_s", steady, []float64{20, 60, 40, 30, 50}, "unresolved"},
	} {
		var out bytes.Buffer
		if err := compareFiles(&out, resultsOf(t, c.metric, c.a...), resultsOf(t, c.metric, c.b...)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("%s: want a header and one row, got:\n%s", c.name, out.String())
		}
		row := lines[1]
		if !strings.HasPrefix(row, wlJoinStorm) || !strings.Contains(row, c.metric) || !strings.Contains(row, c.want) {
			t.Errorf("%s: want verdict %q in row %q", c.name, c.want, row)
		}
		for _, other := range []string{"ok", "REGRESSED", "unresolved"} {
			if other != c.want && strings.Contains(row, other) {
				t.Errorf("%s: row %q also says %q", c.name, row, other)
			}
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := resultsOf(t, "ops_per_s", 1, 2)
	f, err := readResults(resultsOf(t, "ops_per_s", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	f.Env.Cores = 8
	b := filepath.Join(t.TempDir(), "b.json")
	if err := f.write(b); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(io.Discard, a, b); err == nil {
		t.Error("compared results of a 2-core and an 8-core host")
	}
}

// TestSpreadMarksEveryBoundedMetric: a spread above the bound is marked
// on every end-to-end metric, setup_s too, and on no per-layer metric.
func TestSpreadMarksEveryBoundedMetric(t *testing.T) {
	var runs []runRecord
	for _, v := range []float64{1, 2, 3, 4, 5} {
		runs = append(runs, runRecord{Workload: wlJoinStorm, Metrics: map[string]value{
			"setup_s":          {Value: v},
			"ops_per_s":        {Value: 100 + v},
			"packet.decode_ns": {Value: v},
		}})
	}
	var out bytes.Buffer
	printSpread(&out, runs)
	marked := func(metric string) bool {
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") {
				return strings.Contains(line, "spread above bound")
			}
		}
		t.Fatalf("no row for %s in:\n%s", metric, out.String())
		return false
	}
	if !marked("setup_s") || marked("ops_per_s") || marked("packet.decode_ns") {
		t.Errorf("wrong rows marked:\n%s", out.String())
	}
}

// TestUsageErrors: the command line refuses what it cannot run, with
// the usage exit code and without running anything.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no_such_workload"},
		{"-compare", "only-one.json"},
		{"stray"},
		{"-smoke"},
	} {
		var stdout, stderr bytes.Buffer
		if code := mainExit(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
	var stderr bytes.Buffer
	if code := mainExit([]string{"-compare", "missing-a.json", "missing-b.json"}, io.Discard, &stderr); code != 1 {
		t.Errorf("-compare of missing files: exit code %d, want 1", code)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
