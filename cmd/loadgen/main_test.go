package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSoakShortRun drives the full soak engine — capture fanout,
// churn, flaky assessments, learner, gates, archive — at a small scale
// and requires every gate to pass and the archive to parse.
func TestSoakShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load soak")
	}
	outPath := filepath.Join(t.TempDir(), "SOAK_test.json")
	var out bytes.Buffer
	err := run([]string{
		"-soak-duration", "3s", "-soak-devices", "200",
		"-soak-sample", "1s", "-train-captures", "4", "-soak-out", outPath,
	}, &out)
	if err != nil {
		t.Fatalf("soak: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum soakSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("archive does not parse: %v", err)
	}
	if !sum.Pass {
		t.Fatalf("soak gates failed: %v", sum.Failures)
	}
	if sum.Packets == 0 || sum.SustainedPPS <= 0 {
		t.Fatalf("no sustained load: %d packets, %.0f pkt/s", sum.Packets, sum.SustainedPPS)
	}
	if sum.Cycles == 0 {
		t.Error("no device cycles: churn engine never re-fingerprinted")
	}
	if sum.UnknownObserved == 0 {
		t.Error("no unknown observations: held-out devices never reached the learner")
	}
	if sum.CaptureDrops != 0 {
		t.Errorf("%d drops on a lossless fanout", sum.CaptureDrops)
	}
	if len(sum.Samples) == 0 {
		t.Error("archive has no samples")
	}
	if !strings.Contains(out.String(), "all gates passed") {
		t.Errorf("output missing pass line:\n%s", out.String())
	}
}

// TestSoakGateFailureDumpsProfiles forces an absurd RSS ceiling and
// requires the run to fail its gates, write the archive with pass:
// false, and dump pprof profiles next to it.
func TestSoakGateFailureDumpsProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load soak")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "SOAK_fail.json")
	var out bytes.Buffer
	err := run([]string{
		"-soak-duration", "3s", "-soak-devices", "100",
		"-soak-sample", "500ms", "-train-captures", "4",
		"-soak-rss-mb", "1", // no process fits in 1 MB
		"-soak-out", outPath,
	}, &out)
	if err == nil {
		t.Fatalf("soak passed a 1 MB RSS ceiling:\n%s", out.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("failing soak did not write its archive: %v", err)
	}
	var sum soakSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Pass {
		t.Error("archive claims pass despite failed gates")
	}
	if len(sum.Failures) == 0 {
		t.Error("archive carries no failure descriptions")
	}
	for _, p := range []string{"soak_goroutine.pprof", "soak_heap.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, p)); err != nil {
			t.Errorf("gate failure did not dump %s: %v", p, err)
		}
	}
}
