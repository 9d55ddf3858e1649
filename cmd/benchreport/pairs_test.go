package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const pairsContract = `{"end_to_end": [
  {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
  {"name": "cpu_us_per_op", "unit": "us", "better": "lower", "bound": 0.25}
]}`

// writePair writes pair i's two logs and, for each side given a value
// map, its -json result.
func writePair(t *testing.T, dir string, i int, parent, change map[string]float64, correct bool) {
	t.Helper()
	for name, ms := range map[string]map[string]float64{"parent": parent, "change": change} {
		writeBench(t, dir, fmt.Sprintf("%s-%d.log", name, i), "")
		if ms == nil {
			continue
		}
		var parts []string
		for m, v := range ms {
			parts = append(parts, fmt.Sprintf("%q: {\"value\": %g, \"unit\": \"x\"}", m, v))
		}
		ok := correct || name == "parent"
		writeBench(t, dir, fmt.Sprintf("%s-%d.json", name, i), fmt.Sprintf(
			`{"env": {}, "runs": [{"workload": "join_storm", "seed": %d, "trace": false, "correct": %v, "attempted": 1000, "failed": 0, "metrics": {%s}}]}`,
			100+i, ok, strings.Join(parts, ", ")))
	}
}

func pairsRun(t *testing.T, dir string) (string, error) {
	t.Helper()
	contract := writeBench(t, t.TempDir(), "BENCHMARK.json", pairsContract)
	var out bytes.Buffer
	err := run([]string{"-pairs", dir, "-pairs-contract", contract}, &out)
	return out.String(), err
}

func TestPairsReportsWinsAndQuartiles(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		p := 45000 + 100*float64(i)
		c := p * 1.3
		if i == 4 {
			c = p - 1 // one lost pair
		}
		writePair(t, dir, i, map[string]float64{"ops_per_s": p, "cpu_us_per_op": 30},
			map[string]float64{"ops_per_s": c, "cpu_us_per_op": 29}, true)
	}
	got, err := pairsRun(t, dir)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, got)
	}
	for _, want := range []string{
		"join_storm, 10 of 10 pairs complete, seeds 100,101,",
		"ops_per_s      higher 45450 [45225 .. 45675]",
		" 9/10   yes", "10/10   yes", "OK:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestPairsArchive: the report's JSON form holds every run's end-to-end
// values, each metric's quartiles and wins, and the revisions the
// script named.
func TestPairsArchive(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		writePair(t, dir, i, map[string]float64{"ops_per_s": 100 + float64(i), "cpu_us_per_op": 10, "per_layer_ns": 7},
			map[string]float64{"ops_per_s": 110 + float64(i), "cpu_us_per_op": 9}, true)
	}
	writeBench(t, dir, "revisions", `{"parent": "abc", "change": "def"}`)
	if got, err := pairsRun(t, dir); err != nil {
		t.Fatalf("run: %v\n%s", err, got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "pairs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a pairsArchive
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if a.Workload != "join_storm" || !a.OK || a.Revisions["parent"] != "abc" || a.Revisions["change"] != "def" {
		t.Errorf("header = %q ok=%v revisions %v", a.Workload, a.OK, a.Revisions)
	}
	if len(a.Pairs) != 4 || a.Pairs[3].Seed != 103 || a.Pairs[3].Parent["ops_per_s"] != 103 || a.Pairs[3].Change["ops_per_s"] != 113 {
		t.Errorf("pairs = %+v", a.Pairs)
	}
	if _, ok := a.Pairs[0].Parent["per_layer_ns"]; ok {
		t.Error("a metric the contract does not declare end to end was archived")
	}
	if len(a.Metrics) != 2 {
		t.Fatalf("metrics = %+v", a.Metrics)
	}
	if m := a.Metrics[0]; m.Name != "ops_per_s" || m.Parent != [3]float64{100.75, 101.5, 102.25} || m.Wins != 4 || m.Pairs != 4 || !m.BeyondIQR || m.Check != "ok" {
		t.Errorf("ops_per_s = %+v", m)
	}
	if s := a.Sides[1]; s.Side != "change" || s.Attempted != 4000 || s.Failed != 0 {
		t.Errorf("change side = %+v", s)
	}
}

func TestPairsFailBeyondBound(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		writePair(t, dir, i, map[string]float64{"ops_per_s": 100, "cpu_us_per_op": 10},
			map[string]float64{"ops_per_s": 101, "cpu_us_per_op": 13}, true)
	}
	got, err := pairsRun(t, dir)
	if err == nil || !strings.Contains(err.Error(), "cpu_us_per_op median 10.00 -> 13.00 (+30.0 %), bound 25 %") {
		t.Fatalf("err = %v, want the cpu_us_per_op bound failure\n%s", err, got)
	}
	if !strings.Contains(got, "WORSE THAN BOUND") {
		t.Errorf("table does not flag the metric:\n%s", got)
	}
}

func TestPairsFailOnMissingOrIncorrectRun(t *testing.T) {
	dir := t.TempDir()
	same := map[string]float64{"ops_per_s": 100, "cpu_us_per_op": 10}
	writePair(t, dir, 0, same, same, true)
	writePair(t, dir, 1, same, nil, true)   // the change's run left no result
	writePair(t, dir, 2, same, same, false) // the change's oracle failed
	got, err := pairsRun(t, dir)
	if err == nil || !strings.Contains(err.Error(), "change: 1 runs failed the oracle, 1 left no result") {
		t.Fatalf("err = %v\n%s", err, got)
	}
	if !strings.Contains(got, "2 of 3 pairs complete") {
		t.Errorf("output does not count complete pairs:\n%s", got)
	}
}

func TestPairsNeedResults(t *testing.T) {
	if _, err := pairsRun(t, t.TempDir()); err == nil {
		t.Fatal("an empty directory reported no error")
	}
}
