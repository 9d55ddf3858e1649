// Command benchreport regenerates the tables and figures of the IoT
// Sentinel paper's evaluation section against the synthetic substrate.
//
// Usage:
//
//	benchreport -exp all
//	benchreport -exp fig5 -captures 20 -folds 10 -repeats 10
//	benchreport -exp ablation-trees
//	benchreport -delta .            # diff the two newest BENCH_*.json
//	benchreport -delta old.json,new.json -delta-threshold 10
//	benchreport -pairs DIR          # report `make e2e-pair`'s runs against BENCHMARK.json, and write DIR/pairs.json
//
// Experiments: fig5, table3, table4, table5, table6, fig6a, fig6b,
// fig6c, features, unknown, tradeoff, remote-controller, ablation-fplen, ablation-negratio,
// ablation-trees, ablation-refs, ablation-discrimination,
// ablation-threshold, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iotsentinel/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment to run")
		captures   = fs.Int("captures", 20, "setup captures per device-type")
		folds      = fs.Int("folds", 10, "cross-validation folds")
		repeats    = fs.Int("repeats", 10, "cross-validation repeats")
		seed       = fs.Int64("seed", 1, "random seed")
		iters      = fs.Int("iterations", 15, "latency iterations per pair")
		delta      = fs.String("delta", "", "compare archived benchmarks instead of running experiments: a directory holding BENCH_*.json (two newest compared) or an explicit 'old.json,new.json' pair")
		deltaThr   = fs.Float64("delta-threshold", 10, "percent ns/op slowdown that fails -delta")
		deltaGate  = fs.String("delta-gate", "", "regexp of benchmark names whose regressions fail -delta; others are reported only (empty gates everything)")
		deltaAllow = fs.String("delta-allow", "", "regexp of benchmark names whose regressions are reported but do not fail -delta (accepted trade-offs)")
		pairs      = fs.String("pairs", "", "report end-to-end parent/change pairs instead of running experiments: a directory of parent-<i>.json and change-<i>.json bench results (make e2e-pair); the report is also written to its pairs.json")
		contract   = fs.String("pairs-contract", "BENCHMARK.json", "the benchmark contract whose end-to-end metrics and bounds -pairs checks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *delta != "" {
		return runDelta(out, *delta, *deltaThr, *deltaGate, *deltaAllow)
	}
	if *pairs != "" {
		return runPairs(out, *pairs, *contract)
	}
	opts := report.Options{
		Captures:          *captures,
		Folds:             *folds,
		Repeats:           *repeats,
		Seed:              *seed,
		LatencyIterations: *iters,
	}

	experiments := map[string]func() error{
		"fig5":                    experiment(out, opts, report.Fig5),
		"table4":                  experiment(out, opts, report.Table4),
		"table5":                  experiment(out, opts, report.Table5),
		"table6":                  experiment(out, opts, report.Table6),
		"fig6a":                   experiment(out, opts, report.Fig6a),
		"fig6b":                   experiment(out, opts, report.Fig6b),
		"fig6c":                   experiment(out, opts, report.Fig6c),
		"ablation-trees":          experiment(out, opts, report.AblateForestSize),
		"ablation-negratio":       experiment(out, opts, report.AblateNegativeRatio),
		"ablation-refs":           experiment(out, opts, report.AblateReferenceCount),
		"ablation-discrimination": experiment(out, opts, report.AblateDiscrimination),
		"ablation-fplen":          experiment(out, opts, report.AblateFingerprintLength),
		"ablation-threshold":      experiment(out, opts, report.AblateAcceptThreshold),
		"tradeoff":                experiment(out, opts, report.Tradeoff),
		"remote-controller":       experiment(out, opts, report.RemoteController),
		"unknown":                 experiment(out, opts, report.Unknown),
		"features":                experiment(out, opts, report.FeatureImportance),
		"table3": func() error {
			r, err := report.Fig5(opts)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.Table3(r))
			return nil
		},
	}

	if *exp == "all" {
		order := []string{
			"fig5", "table3", "table4", "table5", "table6",
			"fig6a", "fig6b", "fig6c", "features", "unknown", "tradeoff", "remote-controller",
			"ablation-fplen", "ablation-negratio", "ablation-trees",
			"ablation-refs", "ablation-discrimination", "ablation-threshold",
		}
		// fig5 and table3 share one cross-validation; run them jointly
		// to avoid paying for it twice.
		if err := runFig5Both(out, opts); err != nil {
			return err
		}
		for _, name := range order[2:] {
			fmt.Fprintln(out, "────────────────────────────────────────────────────────────")
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}

	fn, ok := experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return fn()
}

func runFig5Both(out io.Writer, opts report.Options) error {
	r, err := report.Fig5(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, r.Render())
	fmt.Fprintln(out, "────────────────────────────────────────────────────────────")
	fmt.Fprintln(out, report.Table3(r))
	return nil
}

// experiment runs one report and prints its rendering.
func experiment[R interface{ Render() string }](out io.Writer, opts report.Options, fn func(report.Options) (R, error)) func() error {
	return func() error {
		r, err := fn(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.Render())
		return nil
	}
}
