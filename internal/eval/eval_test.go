package eval

import (
	"math/rand"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
)

func toCore(ds devices.Dataset) map[core.TypeID][]fingerprint.Fingerprint {
	out := make(map[core.TypeID][]fingerprint.Fingerprint, len(ds))
	for k, v := range ds {
		out[core.TypeID(k)] = v
	}
	return out
}

func TestConfusionBasics(t *testing.T) {
	c := make(Confusion)
	c.Add("a", "a")
	c.Add("a", "a")
	c.Add("a", "b")
	c.Add("b", "b")
	if got := c.Accuracy("a"); got != 2.0/3.0 {
		t.Errorf("Accuracy(a) = %v, want 2/3", got)
	}
	if got := c.Accuracy("b"); got != 1 {
		t.Errorf("Accuracy(b) = %v, want 1", got)
	}
	if got := c.Accuracy("missing"); got != 0 {
		t.Errorf("Accuracy(missing) = %v, want 0", got)
	}
	if got := c.Global(); got != 0.75 {
		t.Errorf("Global = %v, want 0.75", got)
	}
	types := c.Types()
	if len(types) != 2 || types[0] != "a" || types[1] != "b" {
		t.Errorf("Types = %v", types)
	}
}

func TestConfusionEmpty(t *testing.T) {
	c := make(Confusion)
	if c.Global() != 0 {
		t.Error("empty confusion Global must be 0")
	}
}

func TestCrossValidateErrors(t *testing.T) {
	if _, err := CrossValidate(nil, CVConfig{}); err == nil {
		t.Error("empty dataset must fail")
	}
	small := map[core.TypeID][]fingerprint.Fingerprint{
		"a": make([]fingerprint.Fingerprint, 3),
		"b": make([]fingerprint.Fingerprint, 3),
	}
	if _, err := CrossValidate(small, CVConfig{Folds: 10}); err == nil {
		t.Error("fewer samples than folds must fail")
	}
}

// TestCrossValidatePaperShape is the headline Fig 5 check at reduced
// scale: distinct device-types identify almost perfectly, sibling
// groups confuse mostly within themselves, and the global accuracy is
// in the paper's range.
func TestCrossValidatePaperShape(t *testing.T) {
	ds := toCore(devices.GenerateDataset(20, 1))
	res, err := CrossValidate(ds, CVConfig{Folds: 5, Repeats: 1, Seed: 7})
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if res.Evaluated != 540 {
		t.Fatalf("Evaluated = %d, want 540", res.Evaluated)
	}
	global := res.Confusion.Global()
	if global < 0.7 || global > 0.95 {
		t.Errorf("global accuracy = %.3f, want in [0.70, 0.95] (paper: 0.815)", global)
	}

	inGroup := make(map[core.TypeID][]string)
	for _, group := range devices.SiblingGroups() {
		for _, id := range group {
			for _, other := range group {
				inGroup[core.TypeID(id)] = append(inGroup[core.TypeID(id)], other)
			}
		}
	}
	for _, typ := range res.Confusion.Types() {
		acc := res.Confusion.Accuracy(typ)
		if group, isSibling := inGroup[typ]; isSibling {
			// Sibling confusion must stay within the group: count
			// predictions that leave it.
			row := res.Confusion[typ]
			outside, total := 0, 0
			for predicted, n := range row {
				total += n
				found := false
				for _, g := range group {
					if predicted == core.TypeID(g) {
						found = true
					}
				}
				if !found && predicted != core.Unknown {
					outside += n
				}
			}
			if frac := float64(outside) / float64(total); frac > 0.25 {
				t.Errorf("%s: %.0f%% of predictions leave its sibling group", typ, frac*100)
			}
		} else if acc < 0.75 {
			t.Errorf("distinct type %s accuracy = %.2f, want >= 0.75", typ, acc)
		}
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	ds := toCore(devices.GenerateDataset(10, 3))
	a, err := CrossValidate(ds, CVConfig{Folds: 5, Seed: 9})
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	b, err := CrossValidate(ds, CVConfig{Folds: 5, Seed: 9})
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if a.Confusion.Global() != b.Confusion.Global() {
		t.Error("same seed produced different global accuracy")
	}
}

func TestMeasureTiming(t *testing.T) {
	ds := toCore(devices.GenerateDataset(10, 5))
	id, err := core.Train(ds, core.Config{Seed: 11})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var probes []fingerprint.Fingerprint
	for _, fps := range toCore(devices.GenerateDataset(2, 6)) {
		probes = append(probes, fps...)
	}
	timing := MeasureTiming(id, probes)
	if timing.TypeIdentify.N != len(probes) {
		t.Errorf("TypeIdentify.N = %d, want %d", timing.TypeIdentify.N, len(probes))
	}
	if timing.TypeIdentify.Mean <= 0 {
		t.Error("TypeIdentify mean must be positive")
	}
	if timing.FullClassifyBank.Mean <= 0 {
		t.Error("FullClassifyBank mean must be positive")
	}
	// Table IV shape: a single classification must be far cheaper than
	// the full 27-classifier bank.
	if timing.SingleClassify.Mean*2 > timing.FullClassifyBank.Mean {
		t.Errorf("single classify %v vs bank %v: expected ~27x gap",
			timing.SingleClassify.Mean, timing.FullClassifyBank.Mean)
	}
}

func TestMeasureExtraction(t *testing.T) {
	ds := devices.GenerateDataset(1, 8)
	var fps []fingerprint.Fingerprint
	for _, v := range ds {
		fps = append(fps, v...)
	}
	stat := MeasureExtraction(func() fingerprint.Fingerprint {
		return fingerprint.FromPacked(fps[0].F)
	}, 50)
	if stat.N != 50 || stat.Mean < 0 {
		t.Errorf("stat = %+v", stat)
	}
}

// TestFirmwareVersionsIdentifiable reproduces Sect. VIII-B end to end:
// when old- and new-firmware captures of the same device are trained as
// two device-types, the pipeline tells them apart far better than the
// 50% a coin flip would give, because the update changed the
// fingerprint.
func TestFirmwareVersionsIdentifiable(t *testing.T) {
	orig, err := devices.ProfileByID("EdimaxCam")
	if err != nil {
		t.Fatal(err)
	}
	updated := orig.WithFirmwareUpdate()

	rng := rand.New(rand.NewSource(23))
	gen := func(p *devices.Profile, n int) []fingerprint.Fingerprint {
		out := make([]fingerprint.Fingerprint, 0, n)
		for i := 0; i < n; i++ {
			cap := p.Generate(rng)
			out = append(out, fingerprint.FromPackets(cap.Packets))
		}
		return out
	}
	ds := map[core.TypeID][]fingerprint.Fingerprint{
		core.TypeID(orig.ID):    gen(orig, 20),
		core.TypeID(updated.ID): gen(updated, 20),
		// Fillers keep the negative pool realistic.
		"Aria":      toCore(devices.GenerateDataset(20, 31))["Aria"],
		"HueBridge": toCore(devices.GenerateDataset(20, 32))["HueBridge"],
	}
	res, err := CrossValidate(ds, CVConfig{Folds: 5, Repeats: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []core.TypeID{core.TypeID(orig.ID), core.TypeID(updated.ID)} {
		if acc := res.Confusion.Accuracy(typ); acc < 0.75 {
			t.Errorf("%s accuracy = %.2f, want >= 0.75 (firmware versions should be distinguishable)", typ, acc)
		}
	}
}

func TestMetrics(t *testing.T) {
	c := make(Confusion)
	// a: 3 correct, 1 predicted as b. b: 2 correct.
	c.Add("a", "a")
	c.Add("a", "a")
	c.Add("a", "a")
	c.Add("a", "b")
	c.Add("b", "b")
	c.Add("b", "b")
	ms := c.Metrics()
	a, b := ms["a"], ms["b"]
	if a.Recall != 0.75 || a.Precision != 1 {
		t.Errorf("a metrics = %+v", a)
	}
	// b predicted 3 times (2 tp + 1 from a).
	if b.Recall != 1 || b.Precision != 2.0/3.0 {
		t.Errorf("b metrics = %+v", b)
	}
	if a.F1 <= 0 || a.F1 > 1 || b.F1 <= 0 || b.F1 > 1 {
		t.Errorf("F1 out of range: %v %v", a.F1, b.F1)
	}
	if got := c.MacroF1(); got <= 0 || got > 1 {
		t.Errorf("MacroF1 = %v", got)
	}
	if (Confusion{}).MacroF1() != 0 {
		t.Error("empty MacroF1 must be 0")
	}
}

func TestMetricsUnknownColumn(t *testing.T) {
	c := make(Confusion)
	c.Add("a", core.Unknown)
	c.Add("a", "a")
	ms := c.Metrics()
	if ms["a"].Recall != 0.5 {
		t.Errorf("recall with unknowns = %v", ms["a"].Recall)
	}
}

func TestLeaveOneOut(t *testing.T) {
	ds := toCore(devices.GenerateDataset(10, 13))
	det, err := LeaveOneOut(ds, LeaveOneOutConfig{
		Siblings: devices.SiblingGroups(),
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("LeaveOneOut: %v", err)
	}
	sum := det.RejectRate + det.MisacceptInGroup + det.MisacceptOutGroup
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v", sum)
	}
	if len(det.PerType) != 27 {
		t.Errorf("PerType has %d entries", len(det.PerType))
	}
	// Sibling types must mostly be absorbed within their group when
	// held out (their twin's classifier accepts them), so the sibling
	// misaccept fraction must be material.
	if det.MisacceptInGroup <= 0 {
		t.Error("no in-group absorption recorded")
	}
	// And some genuinely distinct types must be rejected as unknown.
	if det.RejectRate <= 0 {
		t.Error("no unknown detections at all")
	}
	if len(det.Types()) != 27 {
		t.Errorf("Types() = %d", len(det.Types()))
	}
}

func TestLeaveOneOutErrors(t *testing.T) {
	small := map[core.TypeID][]fingerprint.Fingerprint{
		"a": make([]fingerprint.Fingerprint, 2),
		"b": make([]fingerprint.Fingerprint, 2),
	}
	if _, err := LeaveOneOut(small, LeaveOneOutConfig{}); err == nil {
		t.Error("too few types must fail")
	}
}
