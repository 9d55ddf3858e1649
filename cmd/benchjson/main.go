// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so benchmark runs can be archived and
// diffed across commits (see `make bench-json`).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... | benchjson -o BENCH_20260806.json
//
// The output schema:
//
//	{
//	  "date": "2026-08-06",
//	  "goos": "linux",
//	  "goarch": "amd64",
//	  "cores": 2,
//	  "gomaxprocs": 2,
//	  "go_version": "go1.24.0",
//	  "benchmarks": [
//	    {"name": "FingerprintDistance", "pkg": "iotsentinel/internal/editdist",
//	     "runs": 97143, "ns_per_op": 12337,
//	     "bytes_per_op": 4136, "allocs_per_op": 19}
//	  ]
//	}
//
// cores and go_version describe the host benchjson runs on — the one
// that just ran the benchmarks, since `make bench-json` pipes them in —
// and gomaxprocs is read off the benchmark names' -N suffix; archives
// from different core counts are not comparable (benchreport -delta
// refuses them). bytes_per_op and allocs_per_op appear only when the
// run used -benchmem. Repeated results for one benchmark (`-count=N`) are
// merged keeping the minimum ns/op — see (*document).merge.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type benchmark struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

type document struct {
	Date       string      `json:"date"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Cores      int         `json:"cores,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		outFile = fs.String("o", "", "output file (default: stdout)")
		date    = fs.String("date", "", "date stamp for the document (default: today)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc, err := parse(in)
	if err != nil {
		return err
	}
	if *date == "" {
		*date = time.Now().Format("2006-01-02")
	}
	doc.Date = *date
	doc.Cores = runtime.NumCPU()
	doc.GoVersion = runtime.Version()

	w := out
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parse reads `go test -bench` text output. Result lines look like
//
//	BenchmarkName-8   97143   12337 ns/op   4136 B/op   19 allocs/op
//
// interleaved with goos/goarch/pkg headers that apply to the
// benchmarks that follow them.
func parse(in io.Reader) (*document, error) {
	doc := &document{Benchmarks: []benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, procs, ok := parseResult(line, pkg)
			if !ok {
				continue // e.g. "BenchmarkFoo-8" alone on a wrapped line
			}
			doc.GOMAXPROCS = procs
			doc.merge(b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// merge folds a result into the document. Repeated results for the
// same benchmark (a `-count=N` run) keep the minimum ns/op: the
// fastest repeat is the least scheduler-contended measurement of the
// code's actual capability, so archiving it damps the run-to-run noise
// that would otherwise trip `benchreport -delta` on a busy host.
func (d *document) merge(b benchmark) {
	for i := range d.Benchmarks {
		have := &d.Benchmarks[i]
		if have.Name != b.Name || have.Pkg != b.Pkg {
			continue
		}
		if b.NsPerOp < have.NsPerOp {
			*have = b
		}
		return
	}
	d.Benchmarks = append(d.Benchmarks, b)
}

// parseResult parses one result line, returning the benchmark and the
// GOMAXPROCS its name carried (1 when the name has no -N suffix, which
// is how the testing package prints a single-proc run).
func parseResult(line, pkg string) (benchmark, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchmark{}, 0, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, 0, false
	}
	b := benchmark{Name: name, Pkg: pkg, Runs: runs}
	// The remainder is (value, unit) pairs.
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, 0, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "B/op":
			n := int64(v)
			b.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			b.AllocsPerOp = &n
		}
	}
	return b, procs, seen
}
