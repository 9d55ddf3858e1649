package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const benchOld = `{
  "date": "2026-08-01",
  "benchmarks": [
    {"name": "Fast", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 1000, "allocs_per_op": 0},
    {"name": "Slow", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 5000, "allocs_per_op": 3},
    {"name": "Gone", "pkg": "iotsentinel/internal/b", "runs": 100, "ns_per_op": 42}
  ]
}`

func TestDeltaPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	writeBench(t, dir, "BENCH_20260801.json", benchOld)
	writeBench(t, dir, "BENCH_20260802.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "Fast", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 1050, "allocs_per_op": 0},
    {"name": "Slow", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 4000, "allocs_per_op": 3},
    {"name": "Added", "pkg": "iotsentinel/internal/b", "runs": 100, "ns_per_op": 7}
  ]
}`)
	var out bytes.Buffer
	if err := run([]string{"-delta", dir}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"a.Fast", "+5.0%", "-20.0%", "new", "removed", "OK:"} {
		if !strings.Contains(got, want) {
			t.Errorf("delta output missing %q:\n%s", want, got)
		}
	}
}

func TestDeltaFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeBench(t, dir, "BENCH_20260801.json", benchOld)
	next := writeBench(t, dir, "BENCH_20260802.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "Fast", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 1200, "allocs_per_op": 0}
  ]
}`)
	var out bytes.Buffer
	err := run([]string{"-delta", old + "," + next}, &out)
	if err == nil {
		t.Fatalf("20%% slowdown must fail the default 10%% threshold:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "a.Fast") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	// A looser threshold accepts the same pair.
	if err := run([]string{"-delta", old + "," + next, "-delta-threshold", "25"}, &out); err != nil {
		t.Fatalf("25%% threshold should pass: %v", err)
	}
}

func TestDeltaGateEnforcesOnlyNamedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	old := writeBench(t, dir, "BENCH_20260801.json", benchOld)
	next := writeBench(t, dir, "BENCH_20260802.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "Fast", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 1500, "allocs_per_op": 0},
    {"name": "Slow", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 9000, "allocs_per_op": 3}
  ]
}`)
	pair := old + "," + next
	var out bytes.Buffer
	// Both regressed; gating only Fast means Slow is context, not failure.
	err := run([]string{"-delta", pair, "-delta-gate", `^a\.Fast$`}, &out)
	if err == nil {
		t.Fatal("gated benchmark's regression must fail")
	}
	if strings.Contains(err.Error(), "a.Slow") {
		t.Errorf("ungated benchmark failed the run: %v", err)
	}
	if !strings.Contains(out.String(), "(ungated)") {
		t.Errorf("ungated regression not marked in the table:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-delta", pair, "-delta-gate", `^b\.`}, &out); err != nil {
		t.Fatalf("no gated benchmark regressed, want pass: %v", err)
	}
	// A sub-benchmark is gated under its package and whole name.
	if got := shortKey("iotsentinel/internal/sdn", "SwitchProcess10k/peer"); got != "sdn.SwitchProcess10k/peer" {
		t.Errorf("shortKey of a sub-benchmark = %q", got)
	}
	if got := shortKey("iotsentinel", "ClassifySingle"); got != "iotsentinel.ClassifySingle" {
		t.Errorf("shortKey of a root-package benchmark = %q", got)
	}
}

func TestDeltaAllowListSparesNamedRegressions(t *testing.T) {
	dir := t.TempDir()
	old := writeBench(t, dir, "BENCH_20260801.json", benchOld)
	next := writeBench(t, dir, "BENCH_20260802.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "Fast", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 1200, "allocs_per_op": 0},
    {"name": "Slow", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 9000, "allocs_per_op": 3}
  ]
}`)
	pair := old + "," + next
	var out bytes.Buffer
	// Allowing only Fast still fails on Slow; allowing both passes.
	if err := run([]string{"-delta", pair, "-delta-allow", `^a\.Fast$`}, &out); err == nil {
		t.Fatal("Slow's regression must still fail when only Fast is allowed")
	} else if strings.Contains(err.Error(), "a.Fast") {
		t.Errorf("allowed benchmark still listed as a regression: %v", err)
	}
	out.Reset()
	if err := run([]string{"-delta", pair, "-delta-allow", `^a\.(Fast|Slow)$`}, &out); err != nil {
		t.Fatalf("all regressions allowed, want pass: %v", err)
	}
	if !strings.Contains(out.String(), "(allowed)") {
		t.Errorf("allowed regressions not marked in the table:\n%s", out.String())
	}
}

func TestDeltaFailsOnNewAllocations(t *testing.T) {
	dir := t.TempDir()
	old := writeBench(t, dir, "BENCH_20260801.json", benchOld)
	next := writeBench(t, dir, "BENCH_20260802.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "Fast", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 1000, "allocs_per_op": 2}
  ]
}`)
	err := run([]string{"-delta", old + "," + next}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("0 -> 2 allocs/op must fail even with flat ns/op, got %v", err)
	}
}

func TestDeltaNeedsTwoArchives(t *testing.T) {
	dir := t.TempDir()
	writeBench(t, dir, "BENCH_20260801.json", benchOld)
	if err := run([]string{"-delta", dir}, &bytes.Buffer{}); err == nil {
		t.Error("a single archive must be an error, not a vacuous pass")
	}
}

// TestDeltaRefusesDifferentCoreCounts: archives from hosts with
// different core counts — or one that predates the field — are not
// compared at all, even where every number looks flat.
func TestDeltaRefusesDifferentCoreCounts(t *testing.T) {
	dir := t.TempDir()
	doc := func(cores string) string {
		return `{"date": "2026-08-02", ` + cores + `"benchmarks": [
    {"name": "Fast", "pkg": "iotsentinel/internal/a", "runs": 100, "ns_per_op": 1000, "allocs_per_op": 0}]}`
	}
	legacy := writeBench(t, dir, "BENCH_20260801.json", doc(""))
	one := writeBench(t, dir, "BENCH_20260802.json", doc(`"cores": 1, `))
	two := writeBench(t, dir, "BENCH_20260803.json", doc(`"cores": 2, `))
	twoAgain := writeBench(t, dir, "BENCH_20260804.json", doc(`"cores": 2, `))
	for _, pair := range [][2]string{{one, two}, {legacy, two}, {two, legacy}} {
		var out bytes.Buffer
		err := run([]string{"-delta", pair[0] + "," + pair[1]}, &out)
		if err == nil || !strings.Contains(err.Error(), "refusing to compare") {
			t.Errorf("%s vs %s: err = %v, want a refusal\n%s", filepath.Base(pair[0]), filepath.Base(pair[1]), err, out.String())
		}
	}
	for _, pair := range [][2]string{{two, twoAgain}, {legacy, legacy}} {
		if err := run([]string{"-delta", pair[0] + "," + pair[1]}, &bytes.Buffer{}); err != nil {
			t.Errorf("%s vs %s: same provenance must compare: %v", filepath.Base(pair[0]), filepath.Base(pair[1]), err)
		}
	}
}
