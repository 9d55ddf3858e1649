// Command identify trains the IoT Sentinel pipeline from a dataset
// directory produced by datagen (pcap files + labels.csv) and either
// evaluates it with cross-validation or identifies captures. Several
// captures may be passed comma-separated; they are identified as one
// batch, pipelined across the classifier bank's worker pool.
//
// Usage:
//
//	identify -data ./dataset -evaluate
//	identify -data ./dataset -pcap unknown.pcap -mac 20:bb:c0:aa:bb:cc
//	identify -data ./dataset -pcap a.pcap,b.pcap,c.pcap
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/eval"
	"iotsentinel/internal/fingerprint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "identify:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("identify", flag.ContinueOnError)
	var (
		dataDir  = fs.String("data", "dataset", "dataset directory (pcaps + labels.csv)")
		evaluate = fs.Bool("evaluate", false, "run cross-validated evaluation")
		folds    = fs.Int("folds", 10, "cross-validation folds")
		repeats  = fs.Int("repeats", 1, "cross-validation repeats")
		pcapFile = fs.String("pcap", "", "pcap capture(s) to identify, comma-separated")
		mac      = fs.String("mac", "", "device MAC inside the capture (empty: all frames)")
		seed     = fs.Int64("seed", 1, "random seed")
		saveFile = fs.String("save", "", "save the trained model to this file")
		loadFile = fs.String("load", "", "load a trained model instead of training")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := loadDataset(*dataDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %d device-types, %d fingerprints from %s\n",
		len(ds), datasetSize(ds), *dataDir)

	if *evaluate {
		res, err := eval.CrossValidate(ds, eval.CVConfig{
			Folds: *folds, Repeats: *repeats, Seed: *seed,
		})
		if err != nil {
			return err
		}
		for _, t := range res.Confusion.Types() {
			fmt.Fprintf(out, "%-20s %.2f\n", t, res.Confusion.Accuracy(t))
		}
		fmt.Fprintf(out, "global accuracy: %.3f over %d identifications\n",
			res.Confusion.Global(), res.Evaluated)
		return nil
	}

	if *pcapFile == "" && *saveFile == "" {
		return fmt.Errorf("nothing to do: pass -evaluate, -pcap FILE or -save FILE")
	}
	var id *core.Identifier
	if *loadFile != "" {
		mf, err := os.Open(*loadFile)
		if err != nil {
			return fmt.Errorf("open model: %w", err)
		}
		id, err = core.LoadIdentifier(mf)
		_ = mf.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded model with %d device-types from %s\n", id.NumTypes(), *loadFile)
	} else {
		var err error
		id, err = core.Train(ds, core.Config{Seed: *seed})
		if err != nil {
			return err
		}
	}
	if *saveFile != "" {
		mf, err := os.Create(*saveFile)
		if err != nil {
			return fmt.Errorf("create model file: %w", err)
		}
		if err := id.Save(mf); err != nil {
			_ = mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved model to %s\n", *saveFile)
		if *pcapFile == "" {
			return nil
		}
	}
	files := strings.Split(*pcapFile, ",")
	fps := make([]fingerprint.Fingerprint, len(files))
	frames := make([]int, len(files))
	for i, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return fmt.Errorf("open capture: %w", err)
		}
		fp, used, err := devices.ReadPCAP(f, *mac)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("read capture %s: %w", name, err)
		}
		fps[i] = fp
		frames[i] = used
	}
	// One pending capture or many: IdentifyBatch pipelines them across
	// the worker pool and returns results in input order.
	for i, res := range id.IdentifyBatch(fps) {
		if len(files) > 1 {
			fmt.Fprintf(out, "%s:\n", files[i])
		}
		fmt.Fprintf(out, "capture: %d frames used, %d packets in fingerprint\n", frames[i], len(fps[i].F))
		if res.Type == core.Unknown {
			fmt.Fprintln(out, "device-type: UNKNOWN (no classifier accepted; assign strict isolation)")
			continue
		}
		fmt.Fprintf(out, "device-type: %s\n", res.Type)
		if res.Discriminated {
			fmt.Fprintf(out, "matched %d types; discriminated by edit distance:\n", len(res.Matches))
			for _, t := range res.Matches {
				// Candidates abandoned by the budgeted scorer carry no
				// exact score — only that they could not beat the winner.
				if s, ok := res.Scores[t]; ok {
					fmt.Fprintf(out, "  %-20s score %.3f\n", t, s)
				} else {
					fmt.Fprintf(out, "  %-20s pruned (worse than winner)\n", t)
				}
			}
		}
	}
	return nil
}

// loadDataset reads labels.csv and fingerprints every referenced pcap.
func loadDataset(dir string) (map[core.TypeID][]fingerprint.Fingerprint, error) {
	f, err := os.Open(filepath.Join(dir, "labels.csv"))
	if err != nil {
		return nil, fmt.Errorf("open labels: %w", err)
	}
	defer func() { _ = f.Close() }()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("parse labels: %w", err)
	}
	ds := make(map[core.TypeID][]fingerprint.Fingerprint)
	for i, row := range rows {
		if i == 0 && strings.HasPrefix(row[0], "file") {
			continue // header
		}
		if len(row) < 3 {
			return nil, fmt.Errorf("labels row %d: want >=3 columns, got %d", i, len(row))
		}
		file, typ, mac := row[0], row[1], row[2]
		pf, err := os.Open(filepath.Join(dir, file))
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", file, err)
		}
		fp, _, err := devices.ReadPCAP(pf, mac)
		_ = pf.Close()
		if err != nil {
			return nil, fmt.Errorf("fingerprint %s: %w", file, err)
		}
		ds[core.TypeID(typ)] = append(ds[core.TypeID(typ)], fp)
	}
	return ds, nil
}

func datasetSize(ds map[core.TypeID][]fingerprint.Fingerprint) int {
	n := 0
	for _, fps := range ds {
		n += len(fps)
	}
	return n
}
