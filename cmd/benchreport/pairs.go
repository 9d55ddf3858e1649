package main

// End-to-end pair mode: `make e2e-pair` (scripts/e2e-pair.sh) runs
// bench/run.sh alternately from a parent checkout and from this one,
// and leaves pair i's output in one directory: the logs parent-<i>.log
// and change-<i>.log and, when a run got as far as its result, the
// -json files parent-<i>.json and change-<i>.json. runPairs reads them
// and prints, for every end-to-end metric BENCHMARK.json declares, both
// sides' median and quartiles, how many pairs the change won, whether
// the medians differ by more than the parent's interquartile range, and
// the check against the metric's bound. It also writes all of that, with
// each run's end-to-end values, to DIR/pairs.json (pairsArchive), which
// make e2e-pair files under docs/bench/.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchContract is the subset of BENCHMARK.json the pair report needs.
type benchContract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// benchResult is the subset of one bench -json file the report needs.
type benchResult struct {
	Runs []struct {
		Workload  string `json:"workload"`
		Seed      int64  `json:"seed"`
		Correct   bool   `json:"correct"`
		Attempted int64  `json:"attempted"`
		Failed    int64  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"runs"`
}

// pairsArchive is the JSON form of one pair report: every run's
// end-to-end values and every metric's summary, as printed.
type pairsArchive struct {
	Workload string `json:"workload"`
	// Revisions is DIR/revisions when the script left one: what the
	// "parent" and "change" sides were.
	Revisions map[string]string  `json:"revisions,omitempty"`
	Pairs     []archivedPair     `json:"pairs"`
	Metrics   []archivedMetric   `json:"metrics"`
	Sides     [2]archivedOutcome `json:"sides"`
	Problems  []string           `json:"problems,omitempty"`
	OK        bool               `json:"ok"`
}

// archivedPair is pair i's end-to-end values, a side absent when its run
// left no result.
type archivedPair struct {
	Index  int                `json:"index"`
	Seed   int64              `json:"seed"`
	Parent map[string]float64 `json:"parent,omitempty"`
	Change map[string]float64 `json:"change,omitempty"`
}

// archivedMetric is one row of the report. Parent and Change are the
// first quartile, median and third quartile over the complete pairs.
type archivedMetric struct {
	Name      string     `json:"name"`
	Better    string     `json:"better"`
	Bound     float64    `json:"bound"`
	Parent    [3]float64 `json:"parent_q1_median_q3"`
	Change    [3]float64 `json:"change_q1_median_q3"`
	Delta     float64    `json:"median_delta"`
	Wins      int        `json:"change_wins"`
	Pairs     int        `json:"pairs"`
	BeyondIQR bool       `json:"beyond_parent_iqr"`
	Check     string     `json:"check"`
}

// archivedOutcome is one side's operation and run counts.
type archivedOutcome struct {
	Side      string `json:"side"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Incorrect int    `json:"oracle_failed_runs"`
	Missing   int    `json:"runs_without_result"`
}

// pairSide is what one side of the pairs produced.
type pairSide struct {
	values             map[string][]float64 // metric -> one value per complete pair
	attempted, failed  int64
	incorrect, missing int
}

func readBenchJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runPairs renders the pair report for dir against the contract at
// contractPath and archives it as dir/pairs.json. It returns an error
// when a run is missing or its oracle failed, when the change fails a
// larger share of its operations, or when a metric's median is worse
// than the parent's by more than its bound.
func runPairs(out io.Writer, dir, contractPath string) error {
	var contract benchContract
	if err := readBenchJSON(contractPath, &contract); err != nil {
		return err
	}
	if len(contract.EndToEnd) == 0 {
		return fmt.Errorf("%s declares no end-to-end metric", contractPath)
	}
	// Every run leaves a log, result or not: the logs count the pairs.
	logs, err := filepath.Glob(filepath.Join(dir, "parent-*.log"))
	if err != nil {
		return err
	}
	n := len(logs)
	if n == 0 {
		return fmt.Errorf("no pair results under %s", dir)
	}

	names := [2]string{"parent", "change"}
	var sides [2]pairSide
	for k := range sides {
		sides[k].values = make(map[string][]float64)
	}
	var archive pairsArchive
	if err := readBenchJSON(filepath.Join(dir, "revisions"), &archive.Revisions); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var workload string
	var seeds []int64
	complete := 0
	for i := 0; i < n; i++ {
		var res [2]benchResult
		ok := true
		pair := archivedPair{Index: i}
		for k, name := range names {
			s := &sides[k]
			if err := readBenchJSON(filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, i)), &res[k]); err != nil || len(res[k].Runs) != 1 {
				s.missing++
				ok = false
				continue
			}
			r := res[k].Runs[0]
			workload = r.Workload
			s.attempted += r.Attempted
			s.failed += r.Failed
			if !r.Correct {
				s.incorrect++
			}
			pair.Seed = r.Seed
			values := make(map[string]float64, len(contract.EndToEnd))
			for _, m := range contract.EndToEnd {
				if v, ok := r.Metrics[m.Name]; ok {
					values[m.Name] = v.Value
				}
			}
			if k == 0 {
				pair.Parent = values
			} else {
				pair.Change = values
			}
		}
		archive.Pairs = append(archive.Pairs, pair)
		if !ok {
			continue
		}
		complete++
		seeds = append(seeds, res[0].Runs[0].Seed)
		for k := range sides {
			for m, v := range res[k].Runs[0].Metrics {
				sides[k].values[m] = append(sides[k].values[m], v.Value)
			}
		}
	}
	p, c := &sides[0], &sides[1]
	fmt.Fprintf(out, "e2e pairs: %s, %d of %d pairs complete, seeds %s\n", workload, complete, n, seedList(seeds))
	fmt.Fprintf(out, "%-14s %-6s %-32s %-32s %8s %6s %5s %6s  %s\n",
		"metric", "better", "parent median [q1 .. q3]", "change median [q1 .. q3]", "delta", "wins", ">IQR", "bound", "check")

	var problems []string
	for _, m := range contract.EndToEnd {
		pv, cv := p.values[m.Name], c.values[m.Name]
		if len(pv) == 0 || len(pv) != len(cv) {
			fmt.Fprintf(out, "%-14s %-6s (not reported by every run)\n", m.Name, m.Better)
			continue
		}
		higher := m.Better == "higher"
		wins := 0
		for i := range pv {
			if (higher && cv[i] > pv[i]) || (!higher && cv[i] < pv[i]) {
				wins++
			}
		}
		pq, cq := quartiles(pv), quartiles(cv)
		delta := 0.0
		if pq[1] != 0 {
			delta = (cq[1] - pq[1]) / math.Abs(pq[1])
		}
		worse := delta
		if higher {
			worse = -delta
		}
		check := "ok"
		if worse > m.Bound {
			check = "WORSE THAN BOUND"
			problems = append(problems, fmt.Sprintf("%s median %s -> %s (%+.1f %%), bound %.0f %%",
				m.Name, fmtSig(pq[1]), fmtSig(cq[1]), 100*delta, 100*m.Bound))
		}
		beyondIQR := "no"
		if math.Abs(cq[1]-pq[1]) > pq[2]-pq[0] {
			beyondIQR = "yes"
		}
		fmt.Fprintf(out, "%-14s %-6s %-32s %-32s %+7.1f%% %6s %5s %5.0f%%  %s\n", m.Name, m.Better,
			fmtQuartiles(pq), fmtQuartiles(cq), 100*delta, fmt.Sprintf("%d/%d", wins, len(pv)), beyondIQR, 100*m.Bound, check)
		archive.Metrics = append(archive.Metrics, archivedMetric{
			Name: m.Name, Better: m.Better, Bound: m.Bound, Parent: pq, Change: cq, Delta: delta,
			Wins: wins, Pairs: len(pv), BeyondIQR: beyondIQR == "yes", Check: check,
		})
	}

	for k, name := range names {
		s := &sides[k]
		archive.Sides[k] = archivedOutcome{Side: name, Attempted: s.attempted, Failed: s.failed, Incorrect: s.incorrect, Missing: s.missing}
		fmt.Fprintf(out, "%s: %d of %d operations failed, oracle failed in %d runs, %d runs left no result\n",
			name, s.failed, s.attempted, s.incorrect, s.missing)
		if s.incorrect > 0 || s.missing > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d runs failed the oracle, %d left no result (their logs are %s-<i>.log)",
				name, s.incorrect, s.missing, name))
		}
	}
	if failShare(c) > failShare(p) {
		problems = append(problems, fmt.Sprintf("the change fails %.2g of its operations, the parent %.2g", failShare(c), failShare(p)))
	}
	archive.Workload, archive.Problems, archive.OK = workload, problems, len(problems) == 0
	data, err := json.MarshalIndent(archive, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "pairs.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	fmt.Fprintln(out, "OK: every end-to-end metric within its bound")
	return nil
}

func failShare(s *pairSide) float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// quartiles returns the first quartile, median and third quartile of
// vs, interpolating linearly between order statistics.
func quartiles(vs []float64) [3]float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%s [%s .. %s]", fmtSig(q[1]), fmtSig(q[0]), fmtSig(q[2]))
}

// fmtSig formats v to four significant digits without an exponent.
func fmtSig(v float64) string {
	prec := 3
	if a := math.Abs(v); a >= 1 {
		prec = max(0, 3-int(math.Floor(math.Log10(a))))
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

func seedList(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(parts, ",")
}
