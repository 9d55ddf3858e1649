package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: iotsentinel/internal/editdist
cpu: Fake CPU @ 3.00GHz
BenchmarkDistance32-8            	   50000	     25001 ns/op
BenchmarkFingerprintDistance-8   	   97143	     12337 ns/op	    4136 B/op	      19 allocs/op
PASS
ok  	iotsentinel/internal/editdist	5.120s
pkg: iotsentinel/internal/sdn
BenchmarkFlowTableMatch-8        	 2000000	       600.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	iotsentinel/internal/sdn	1.2s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" {
		t.Fatalf("goos/goarch = %q/%q", doc.GOOS, doc.GOARCH)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(doc.Benchmarks))
	}

	b := doc.Benchmarks[0]
	if b.Name != "Distance32" || b.Pkg != "iotsentinel/internal/editdist" {
		t.Errorf("bench 0 = %q in %q", b.Name, b.Pkg)
	}
	if b.Runs != 50000 || b.NsPerOp != 25001 {
		t.Errorf("bench 0 runs/ns = %d/%v", b.Runs, b.NsPerOp)
	}
	if b.BytesPerOp != nil || b.AllocsPerOp != nil {
		t.Error("bench 0 should have no -benchmem columns")
	}

	b = doc.Benchmarks[1]
	if b.Name != "FingerprintDistance" {
		t.Errorf("bench 1 name = %q", b.Name)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 4136 {
		t.Errorf("bench 1 B/op = %v", b.BytesPerOp)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 19 {
		t.Errorf("bench 1 allocs/op = %v", b.AllocsPerOp)
	}

	b = doc.Benchmarks[2]
	if b.Pkg != "iotsentinel/internal/sdn" {
		t.Errorf("bench 2 pkg = %q (pkg header must reset)", b.Pkg)
	}
	if b.NsPerOp != 600.5 {
		t.Errorf("bench 2 ns/op = %v (fractional values must survive)", b.NsPerOp)
	}
}

func TestParseMergesRepeatsKeepingMin(t *testing.T) {
	repeats := `pkg: iotsentinel/internal/a
BenchmarkHot-8   100   300 ns/op   8 B/op   1 allocs/op
BenchmarkHot-8   120   250 ns/op   8 B/op   1 allocs/op
BenchmarkHot-8   110   410 ns/op   8 B/op   1 allocs/op
pkg: iotsentinel/internal/b
BenchmarkHot-8   100   999 ns/op
`
	doc, err := parse(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (repeats merged, same name in another pkg kept)", len(doc.Benchmarks))
	}
	if b := doc.Benchmarks[0]; b.NsPerOp != 250 || b.Runs != 120 {
		t.Errorf("merged repeat = %v ns/op over %d runs, want the 250 ns/op row", b.NsPerOp, b.Runs)
	}
	if b := doc.Benchmarks[1]; b.Pkg != "iotsentinel/internal/b" || b.NsPerOp != 999 {
		t.Errorf("cross-package benchmark wrongly merged: %+v", b)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	noisy := "BenchmarkAlone-8\nBenchmarkBadRuns-8 xyz 12 ns/op\nnot a bench line\n"
	doc, err := parse(strings.NewReader(noisy))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("got %d benchmarks from noise, want 0", len(doc.Benchmarks))
	}
}

func TestRunRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-date", "2026-08-06"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Date != "2026-08-06" {
		t.Errorf("date = %q", doc.Date)
	}
	if len(doc.Benchmarks) != 3 {
		t.Errorf("round-trip lost benchmarks: %d", len(doc.Benchmarks))
	}
	// The archive says where it was measured: this host's core count
	// and toolchain, and the GOMAXPROCS the benchmark names carried.
	if doc.Cores != runtime.NumCPU() || doc.GoVersion != runtime.Version() || doc.GOMAXPROCS != 8 {
		t.Errorf("provenance = %d cores, gomaxprocs %d, %q; want %d, 8, %q",
			doc.Cores, doc.GOMAXPROCS, doc.GoVersion, runtime.NumCPU(), runtime.Version())
	}
}
