// Package eval implements the paper's evaluation protocol (Sect. VI-B):
// stratified 10-fold cross-validation, repeated, over the labelled
// fingerprint dataset; per-type identification accuracy (Fig 5);
// confusion matrices (Table III); and the timing breakdown of device-
// type identification (Table IV).
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/editdist"
	"iotsentinel/internal/fingerprint"
)

// CVConfig controls cross-validated evaluation.
type CVConfig struct {
	// Folds is the number of cross-validation folds (paper: 10).
	Folds int
	// Repeats is the number of times the whole CV is repeated with
	// re-shuffled folds (paper: 10).
	Repeats int
	// Identifier configures the pipeline under evaluation.
	Identifier core.Config
	// Seed drives fold shuffling and training determinism.
	Seed int64
}

func (c CVConfig) normalize() CVConfig {
	if c.Folds <= 0 {
		c.Folds = 10
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	return c
}

// Confusion is a confusion matrix: Confusion[actual][predicted] counts.
// The core.Unknown key collects rejected fingerprints.
type Confusion map[core.TypeID]map[core.TypeID]int

// Add records one prediction.
func (c Confusion) Add(actual, predicted core.TypeID) {
	row, ok := c[actual]
	if !ok {
		row = make(map[core.TypeID]int)
		c[actual] = row
	}
	row[predicted]++
}

// Accuracy returns the per-type ratio of correct identifications.
func (c Confusion) Accuracy(t core.TypeID) float64 {
	row := c[t]
	total := 0
	for _, n := range row {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(row[t]) / float64(total)
}

// Global returns the overall ratio of correct identifications.
func (c Confusion) Global() float64 {
	correct, total := 0, 0
	for actual, row := range c {
		for predicted, n := range row {
			total += n
			if predicted == actual {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Types returns the actual-type keys in sorted order.
func (c Confusion) Types() []core.TypeID {
	out := make([]core.TypeID, 0, len(c))
	for t := range c {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CVResult aggregates a repeated cross-validation run.
type CVResult struct {
	Confusion Confusion
	// MultiMatchRate is the fraction of test fingerprints accepted by
	// more than one classifier (paper: 55%).
	MultiMatchRate float64
	// AvgEditDistances is the mean number of edit-distance
	// computations per identification (paper: ~7).
	AvgEditDistances float64
	// Evaluated is the total number of test identifications.
	Evaluated int
}

// CrossValidate runs stratified k-fold cross-validation, repeated, over
// the labelled dataset and aggregates all predictions.
func CrossValidate(ds map[core.TypeID][]fingerprint.Fingerprint, cfg CVConfig) (*CVResult, error) {
	cfg = cfg.normalize()
	if len(ds) < 2 {
		return nil, fmt.Errorf("eval: need at least 2 types, got %d", len(ds))
	}
	for t, fps := range ds {
		if len(fps) < cfg.Folds {
			return nil, fmt.Errorf("eval: type %q has %d fingerprints, fewer than %d folds", t, len(fps), cfg.Folds)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &CVResult{Confusion: make(Confusion)}
	multi := 0
	editDistances := 0

	types := sortedTypes(ds)
	for rep := 0; rep < cfg.Repeats; rep++ {
		// Stratified fold assignment: shuffle each type's samples and
		// deal them round-robin across folds.
		folds := make(map[core.TypeID][]int, len(ds))
		for _, t := range types {
			perm := rng.Perm(len(ds[t]))
			folds[t] = perm
		}
		for f := 0; f < cfg.Folds; f++ {
			train := make(map[core.TypeID][]fingerprint.Fingerprint, len(ds))
			var testFPs []fingerprint.Fingerprint
			var testLabels []core.TypeID
			for _, t := range types {
				for pos, idx := range folds[t] {
					if pos%cfg.Folds == f {
						testFPs = append(testFPs, ds[t][idx])
						testLabels = append(testLabels, t)
					} else {
						train[t] = append(train[t], ds[t][idx])
					}
				}
			}
			idCfg := cfg.Identifier
			idCfg.Seed = rng.Int63()
			id, err := core.Train(train, idCfg)
			if err != nil {
				return nil, fmt.Errorf("eval: fold %d: %w", f, err)
			}
			// The whole held-out fold is pending at once — exactly the
			// shape IdentifyBatch pipelines across workers.
			for i, r := range id.IdentifyBatch(testFPs) {
				res.Confusion.Add(testLabels[i], r.Type)
				res.Evaluated++
				if len(r.Matches) > 1 {
					multi++
				}
				editDistances += r.EditDistances
			}
		}
	}
	if res.Evaluated > 0 {
		res.MultiMatchRate = float64(multi) / float64(res.Evaluated)
		res.AvgEditDistances = float64(editDistances) / float64(res.Evaluated)
	}
	return res, nil
}

func sortedTypes(ds map[core.TypeID][]fingerprint.Fingerprint) []core.TypeID {
	out := make([]core.TypeID, 0, len(ds))
	for t := range ds {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Timing is the Table IV breakdown, one mean±stddev per step.
type Timing struct {
	SingleClassify    Stat
	SingleEditDist    Stat
	Extraction        Stat
	FullClassifyBank  Stat
	Discriminations   Stat
	TypeIdentify      Stat
	AvgDiscrimination float64
}

// Stat is a mean and standard deviation over time measurements.
type Stat struct {
	Mean   time.Duration
	StdDev time.Duration
	N      int
}

func newStat(samples []time.Duration) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	var sum float64
	for _, s := range samples {
		sum += float64(s)
	}
	mean := sum / float64(len(samples))
	var sq float64
	for _, s := range samples {
		d := float64(s) - mean
		sq += d * d
	}
	sd := 0.0
	if len(samples) > 1 {
		sd = sq / float64(len(samples)-1)
	}
	return Stat{
		Mean:   time.Duration(mean),
		StdDev: time.Duration(math.Sqrt(sd)),
		N:      len(samples),
	}
}

// MeasureTiming reproduces Table IV against a trained identifier: it
// times fingerprint extraction, a single classification, the full
// classifier bank, single edit-distance computations, and complete type
// identifications over the probe fingerprints.
func MeasureTiming(id *core.Identifier, probes []fingerprint.Fingerprint) Timing {
	var (
		classifyBank []time.Duration
		discrims     []time.Duration
		identify     []time.Duration
		editCount    int
		discrimRuns  int
	)
	for _, fp := range probes {
		start := time.Now()
		r := id.Identify(fp)
		identify = append(identify, time.Since(start))
		classifyBank = append(classifyBank, r.ClassifyTime)
		if r.Discriminated {
			discrims = append(discrims, r.DiscriminateTime)
			editCount += r.EditDistances
			discrimRuns++
		}
	}
	t := Timing{
		FullClassifyBank: newStat(classifyBank),
		Discriminations:  newStat(discrims),
		TypeIdentify:     newStat(identify),
	}
	if discrimRuns > 0 {
		t.AvgDiscrimination = float64(editCount) / float64(discrimRuns)
	}
	// Single-step costs, derived by direct measurement.
	if len(probes) > 0 && id.NumTypes() > 0 {
		var singles []time.Duration
		for _, fp := range probes {
			start := time.Now()
			id.ClassifyOnly(fp)
			singles = append(singles, time.Since(start)/time.Duration(id.NumTypes()))
		}
		t.SingleClassify = newStat(singles)
	}
	if len(probes) >= 2 {
		var eds []time.Duration
		for i := 1; i < len(probes); i++ {
			start := time.Now()
			_ = editDistProbe(probes[i-1], probes[i])
			eds = append(eds, time.Since(start))
		}
		t.SingleEditDist = newStat(eds)
	}
	return t
}

// MeasureExtraction times fingerprint construction from packet vectors.
func MeasureExtraction(build func() fingerprint.Fingerprint, n int) Stat {
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		_ = build()
		samples = append(samples, time.Since(start))
	}
	return newStat(samples)
}

func editDistProbe(a, b fingerprint.Fingerprint) float64 {
	return editdist.Normalized(a.F, b.F)
}

// TypeMetrics holds per-type precision, recall and F1 derived from a
// confusion matrix. Recall equals the Fig 5 accuracy; precision guards
// against a classifier that wins by absorbing other types' samples.
type TypeMetrics struct {
	Precision float64
	Recall    float64
	F1        float64
}

// Metrics computes per-type precision/recall/F1 over the matrix.
func (c Confusion) Metrics() map[core.TypeID]TypeMetrics {
	// Column sums: how often each type was predicted.
	predicted := make(map[core.TypeID]int)
	for _, row := range c {
		for p, n := range row {
			predicted[p] += n
		}
	}
	out := make(map[core.TypeID]TypeMetrics, len(c))
	for t, row := range c {
		tp := row[t]
		actual := 0
		for _, n := range row {
			actual += n
		}
		var m TypeMetrics
		if actual > 0 {
			m.Recall = float64(tp) / float64(actual)
		}
		if predicted[t] > 0 {
			m.Precision = float64(tp) / float64(predicted[t])
		}
		if m.Precision+m.Recall > 0 {
			m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		}
		out[t] = m
	}
	return out
}

// MacroF1 averages F1 over all actual types.
func (c Confusion) MacroF1() float64 {
	ms := c.Metrics()
	if len(ms) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range ms {
		sum += m.F1
	}
	return sum / float64(len(ms))
}
