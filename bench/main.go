// Command bench is the repository's benchmark: five named workloads
// through the production topologies, five end-to-end metrics per
// workload, and — on a traced run — the per-layer metrics, measured
// from outside the layers. README.md describes workloads and metrics;
// BENCHMARK.json at the repository root is the contract a driver runs
// it by:
//
//	bash bench/run.sh --workload join_storm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all five in turn)")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "how long the measured phase of a run lasts")
		trace    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: timed run reporting the end-to-end metrics")
		sets     = fs.Int("sets", 0, "run the whole benchmark this many times on the one seed and print each metric's median, quartiles and spread")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments: one row per metric and workload, judged by the metric's bound")
		jsonPath = fs.String("json", "", "also write the machine-readable results to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadByName(*workload); !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	// One generator plus at least one capture reader.
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(stderr, "bench: GOMAXPROCS is below 2; the load needs a generator and a capture reader running side by side")
		return 1
	}
	// Span files and state dirs go to bench/out from the repository root
	// and to out from inside bench/.
	outDir := "out"
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		outDir = filepath.Join("bench", "out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	env := environment(outDir)
	env.print(stdout)

	file := resultFile{Env: env}
	status := 0
	rounds := 1
	if *sets > 0 {
		rounds = *sets
	}
	for set := 0; set < rounds; set++ {
		for _, name := range names {
			cfg := config{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, sc: fullScale, outDir: outDir}
			res, err := execute(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			file.Runs = append(file.Runs, res.record())
			if *sets == 0 {
				res.print(stdout)
			} else {
				fmt.Fprintf(stdout, "set %d %s: correct %v, failed %d of %d\n", set+1, name, res.Correct, res.Failed, res.Attempted)
			}
			if !res.Correct || res.Failed > 0 {
				for _, n := range res.Notes {
					fmt.Fprintln(stderr, "bench:", name+":", n)
				}
				status = 1
			}
		}
	}
	if *sets > 0 {
		printSpread(stdout, file.Runs)
	}
	if *jsonPath != "" {
		if err := file.write(*jsonPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// envInfo is recorded with every output: a number means nothing without
// the host it was measured on.
type envInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Readers    int    `json:"capture_readers"`
	StateFS    string `json:"state_dir_fs"`
	Network    string `json:"network"`
}

func environment(outDir string) envInfo {
	return envInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Readers:    readers(),
		StateFS:    fsType(outDir),
		Network:    "host loopback (127.0.0.1) only; no real link is crossed",
	}
}

func (e envInfo) print(w io.Writer) {
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d, %s; load: 1 generator + %d capture reader(s), at most %d connections\n",
		e.Cores, e.GOMAXPROCS, e.GoVersion, e.Readers, e.GOMAXPROCS)
	fmt.Fprintf(w, "network: %s; state dir filesystem: %s\n", e.Network, e.StateFS)
}

// fsType names the filesystem a directory is on, by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// print writes the run's metrics as a table and, as the last line, the
// contract's result object.
func (res *result) print(w io.Writer) {
	wl, _ := workloadByName(res.Workload)
	mode := "timed run, end-to-end metrics"
	if res.Trace {
		mode = "traced run, per-layer metrics"
	}
	fmt.Fprintf(w, "\n%s (%s loop, unit of work: %s) seed %d: %s\n", res.Workload, wl.Loop, wl.Op, res.Seed, mode)
	for _, n := range sortedKeys(res.Metrics) {
		v := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", n, v.Value, v.Unit)
	}
	for _, n := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "  info %-31s %16.4f\n", n, res.Info[n])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  failed_share %.6f (%d failed of %d attempted); oracle %s\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted, map[bool]string{true: "passed", false: "FAILED"}[res.Correct])
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
