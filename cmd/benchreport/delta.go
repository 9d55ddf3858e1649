package main

// Benchmark delta mode: compare two archived BENCH_<date>.json
// documents (produced by `make bench-json`) and fail on hot-path
// regressions. `make bench-check` runs this against the two newest
// archives so a slowdown introduced by a PR is caught before the
// numbers are committed as the new baseline.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// benchDoc mirrors the subset of cmd/benchjson's output schema the
// delta needs.
type benchDoc struct {
	Date string `json:"date"`
	// Cores is the archiving host's CPU count (0 in archives that
	// predate the field).
	Cores      int `json:"cores"`
	Benchmarks []struct {
		Name        string  `json:"name"`
		Pkg         string  `json:"pkg"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp *int64  `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// resolveDeltaFiles turns the -delta argument into (old, new) paths.
// "old.json,new.json" names the pair explicitly; anything else is a
// directory whose two newest BENCH_*.json (by the date embedded in the
// name) are compared.
func resolveDeltaFiles(arg string) (string, string, error) {
	if i := strings.IndexByte(arg, ','); i >= 0 {
		return arg[:i], arg[i+1:], nil
	}
	matches, err := filepath.Glob(filepath.Join(arg, "BENCH_*.json"))
	if err != nil {
		return "", "", err
	}
	if len(matches) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_*.json under %s, found %d", arg, len(matches))
	}
	sort.Strings(matches) // BENCH_YYYYMMDD.json sorts chronologically
	return matches[len(matches)-2], matches[len(matches)-1], nil
}

func loadBenchDoc(path string) (*benchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runDelta renders the per-benchmark ns/op comparison and returns an
// error if a gated benchmark present in both documents regressed by
// more than threshold percent, or gained allocations on a previously
// allocation-free path (a 0→N allocs change is a regression no matter
// how small N's time cost looks).
//
// Which benchmarks can fail the run is shaped by two regexps over the
// short key (pkg.Name):
//   - gate: when non-empty, only matching benchmarks are enforced;
//     the rest are context. This is how `make bench-check` pins the
//     named steady-state hot paths while still printing the full
//     table — sub-microsecond non-serving benchmarks swing well past
//     any sane threshold on a loaded host, and a gate that cries wolf
//     gets deleted.
//   - allow: matching benchmarks are never enforced even if gated —
//     the place to record a deliberately accepted regression (e.g.
//     training paying a one-time cost for a faster serving path).
func runDelta(out io.Writer, arg string, threshold float64, gate, allow string) error {
	var gateRe, allowRe *regexp.Regexp
	var err error
	if gate != "" {
		if gateRe, err = regexp.Compile(gate); err != nil {
			return fmt.Errorf("-delta-gate: %w", err)
		}
	}
	if allow != "" {
		if allowRe, err = regexp.Compile(allow); err != nil {
			return fmt.Errorf("-delta-allow: %w", err)
		}
	}
	oldPath, newPath, err := resolveDeltaFiles(arg)
	if err != nil {
		return err
	}
	oldDoc, err := loadBenchDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadBenchDoc(newPath)
	if err != nil {
		return err
	}
	// ns/op on one core and on several are different quantities (the
	// parallel benchmarks and anything GC-assisted move with the core
	// count), so a delta across them would gate on the host, not the
	// code. An archive without the field is of unknown provenance and
	// only compares with another such archive.
	if oldDoc.Cores != newDoc.Cores {
		return fmt.Errorf("refusing to compare %s (%s) with %s (%s): archive the baseline again on this host (make bench-json from the parent commit)",
			filepath.Base(oldPath), coresLabel(oldDoc.Cores), filepath.Base(newPath), coresLabel(newDoc.Cores))
	}

	type entry struct {
		ns     float64
		allocs *int64
		short  string
	}
	base := make(map[string]entry, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		base[b.Pkg+"."+b.Name] = entry{b.NsPerOp, b.AllocsPerOp, shortKey(b.Pkg, b.Name)}
	}

	fmt.Fprintf(out, "Benchmark delta: %s (%s) -> %s (%s), regression threshold %.0f%%\n",
		filepath.Base(oldPath), oldDoc.Date, filepath.Base(newPath), newDoc.Date, threshold)
	fmt.Fprintf(out, "%-50s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")

	var regressions []string
	seen := make(map[string]bool, len(newDoc.Benchmarks))
	for _, b := range newDoc.Benchmarks {
		key, short := b.Pkg+"."+b.Name, shortKey(b.Pkg, b.Name)
		seen[key] = true
		old, ok := base[key]
		if !ok {
			fmt.Fprintf(out, "%-50s %14s %14.1f %9s\n", short, "-", b.NsPerOp, "new")
			continue
		}
		pct := 0.0
		if old.ns > 0 {
			pct = (b.NsPerOp - old.ns) / old.ns * 100
		}
		enforced := gateRe == nil || gateRe.MatchString(short)
		allowed := allowRe != nil && allowRe.MatchString(short)
		suffix := ""
		if pct > threshold {
			switch {
			case allowed:
				suffix = "  (allowed)"
			case !enforced:
				suffix = "  (ungated)"
			}
		}
		fmt.Fprintf(out, "%-50s %14.1f %14.1f %+8.1f%%%s\n", short, old.ns, b.NsPerOp, pct, suffix)
		if allowed || !enforced {
			continue
		}
		if pct > threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f -> %.1f ns/op (%+.1f%%)", short, old.ns, b.NsPerOp, pct))
		}
		if old.allocs != nil && b.AllocsPerOp != nil && *old.allocs == 0 && *b.AllocsPerOp > 0 {
			regressions = append(regressions,
				fmt.Sprintf("%s: 0 -> %d allocs/op", short, *b.AllocsPerOp))
		}
	}
	for key, old := range base {
		if !seen[key] {
			fmt.Fprintf(out, "%-50s %14s %14s %9s\n", old.short, "-", "-", "removed")
		}
	}

	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%%:\n  %s",
			len(regressions), threshold, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintln(out, "OK: no benchmark regressed beyond threshold")
	return nil
}

func coresLabel(n int) string {
	if n == 0 {
		return "core count not recorded"
	}
	return fmt.Sprintf("%d cores", n)
}

// shortKey names a benchmark by its package's last path element, so the
// table stays readable and a sub-benchmark keeps its own slashes:
// "iotsentinel/internal/sdn", "SwitchProcess10k/peer" ->
// "sdn.SwitchProcess10k/peer".
func shortKey(pkg, name string) string {
	return pkg[strings.LastIndexByte(pkg, '/')+1:] + "." + name
}
