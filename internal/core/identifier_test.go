package core

import (
	"math/rand"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// synthTypeProto generates n fingerprints for a synthetic device-type:
// packets carry a type-specific protocol bit and sizes drawn from a
// type-specific discrete alphabet, so types are separable but shared
// alphabets + bits create sibling confusion.
func synthTypeProto(sizes []float64, protoFeat, n, pktLen int, seed int64) []fingerprint.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fingerprint.Fingerprint, 0, n)
	for i := 0; i < n; i++ {
		vs := make([]features.Vector, 0, pktLen)
		for j := 0; j < pktLen; j++ {
			var v features.Vector
			v[features.FeatIP] = 1
			v[protoFeat] = 1
			v[features.FeatSize] = sizes[rng.Intn(len(sizes))]
			v[features.FeatDstIPCounter] = float64(j%3 + 1)
			v[features.FeatSrcPortClass] = 2
			v[features.FeatDstPortClass] = 1
			vs = append(vs, v)
		}
		out = append(out, fingerprint.FromVectors(vs))
	}
	return out
}

func synthType(sizes []float64, n, pktLen int, seed int64) []fingerprint.Fingerprint {
	return synthTypeProto(sizes, features.FeatUDP, n, pktLen, seed)
}

func trainedIdentifier(t *testing.T) (*Identifier, map[TypeID][]fingerprint.Fingerprint) {
	t.Helper()
	samples := map[TypeID][]fingerprint.Fingerprint{
		"alpha": synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 20, 15, 1),
		"beta":  synthTypeProto([]float64{200, 210, 220}, features.FeatTCP, 20, 15, 2),
		"gamma": synthTypeProto([]float64{500, 510, 520}, features.FeatICMP, 20, 15, 3),
	}
	id, err := Train(samples, Config{Seed: 42})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return id, samples
}

func TestTrainAndIdentify(t *testing.T) {
	id, _ := trainedIdentifier(t)
	if id.NumTypes() != 3 {
		t.Fatalf("NumTypes = %d, want 3", id.NumTypes())
	}
	for typ, probe := range map[TypeID][]fingerprint.Fingerprint{
		"alpha": synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 5, 15, 100),
		"beta":  synthTypeProto([]float64{200, 210, 220}, features.FeatTCP, 5, 15, 101),
		"gamma": synthTypeProto([]float64{500, 510, 520}, features.FeatICMP, 5, 15, 102),
	} {
		correct := 0
		for _, fp := range probe {
			if id.Identify(fp).Type == typ {
				correct++
			}
		}
		if correct < 4 {
			t.Errorf("type %q: %d/5 correct", typ, correct)
		}
	}
}

func TestIdentifyUnknownType(t *testing.T) {
	// Unknown-device detection depends on the acceptance threshold:
	// trees that split only on packet size extrapolate, so a majority
	// vote can still accept far-out samples. A stricter threshold
	// rejects them while keeping in-distribution accuracy.
	samples := map[TypeID][]fingerprint.Fingerprint{
		"alpha": synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 20, 15, 1),
		"beta":  synthTypeProto([]float64{200, 210, 220}, features.FeatTCP, 20, 15, 2),
		"gamma": synthTypeProto([]float64{500, 510, 520}, features.FeatICMP, 20, 15, 3),
	}
	id, err := Train(samples, Config{Seed: 42, AcceptThreshold: 0.75})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// A protocol mix never seen in training (EAPoL) with alien sizes.
	probe := synthTypeProto([]float64{9000, 9100, 9200}, features.FeatEAPoL, 5, 15, 200)
	unknown := 0
	for _, fp := range probe {
		res := id.Identify(fp)
		if res.Type == Unknown {
			unknown++
			if len(res.Matches) != 0 {
				t.Error("Unknown result must have no matches")
			}
		}
	}
	if unknown < 4 {
		t.Errorf("unknown detections = %d/5", unknown)
	}
	// Known types must survive the stricter threshold.
	ok := 0
	for _, fp := range synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 5, 15, 201) {
		if id.Identify(fp).Type == "alpha" {
			ok++
		}
	}
	if ok < 4 {
		t.Errorf("alpha under strict threshold: %d/5", ok)
	}
}

func TestDiscriminationBetweenSiblings(t *testing.T) {
	// Two types with identical alphabets force multi-match and the
	// discrimination path. Several distinct filler types keep the
	// sibling fraction of the negative pool small, as in the paper's
	// 27-type setup; otherwise the imbalance-avoidance subsampling
	// floods each sibling's classifier with its twin's samples.
	samples := map[TypeID][]fingerprint.Fingerprint{
		"plug-a": synthType([]float64{100, 110}, 20, 15, 1),
		"plug-b": synthType([]float64{100, 110}, 20, 15, 2),
	}
	fillerSizes := []float64{300, 400, 500, 600, 700, 800, 900, 1000}
	for i, s := range fillerSizes {
		samples[TypeID("filler-"+string(rune('a'+i)))] =
			synthType([]float64{s, s + 10}, 20, 15, int64(10+i))
	}
	id, err := Train(samples, Config{Seed: 7, NegativeRatio: 4})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	sawDiscrimination := false
	for _, fp := range synthType([]float64{100, 110}, 10, 15, 50) {
		res := id.Identify(fp)
		if res.Discriminated {
			sawDiscrimination = true
			if len(res.Matches) < 2 {
				t.Errorf("discrimination ran with %d matches", len(res.Matches))
			}
			if res.EditDistances == 0 {
				t.Error("discrimination reported zero edit distances")
			}
			if res.Type != "plug-a" && res.Type != "plug-b" {
				t.Errorf("sibling probe identified as %q", res.Type)
			}
			// The winner's score is always completed and exact, and no
			// other completed candidate may beat it (abandoned
			// candidates are absent from Scores by construction).
			winScore, ok := res.Scores[res.Type]
			if !ok {
				t.Errorf("winner %q missing from Scores %v", res.Type, res.Scores)
			}
			for c, s := range res.Scores {
				if s < winScore {
					t.Errorf("candidate %q score %v beats winner %q score %v", c, s, res.Type, winScore)
				}
			}
		}
	}
	if !sawDiscrimination {
		t.Error("identical sibling types never triggered discrimination")
	}
}

func TestAddTypeIncremental(t *testing.T) {
	base, _ := trainedIdentifier(t)
	newType := synthType([]float64{1500, 1510, 1520}, 20, 15, 9)
	id, err := base.WithType("delta", newType)
	if err != nil {
		t.Fatalf("WithType: %v", err)
	}
	if id.NumTypes() != 4 || base.NumTypes() != 3 {
		t.Fatalf("NumTypes = %d, receiver %d; want 4 and 3", id.NumTypes(), base.NumTypes())
	}
	correct := 0
	for _, fp := range synthType([]float64{1500, 1510, 1520}, 5, 15, 300) {
		if id.Identify(fp).Type == "delta" {
			correct++
		}
	}
	if correct < 4 {
		t.Errorf("new type identified %d/5", correct)
	}
	// Old types must keep working (their classifiers were untouched).
	ok := 0
	for _, fp := range synthType([]float64{60, 70, 80}, 5, 15, 301) {
		if id.Identify(fp).Type == "alpha" {
			ok++
		}
	}
	if ok < 4 {
		t.Errorf("alpha after WithType: %d/5", ok)
	}
}

func TestAddTypeErrors(t *testing.T) {
	id, _ := trainedIdentifier(t)
	if _, err := id.WithType("alpha", synthType([]float64{60}, 3, 5, 1)); err == nil {
		t.Error("duplicate type must fail")
	}
	if _, err := id.WithType("empty", nil); err == nil {
		t.Error("empty fingerprint set must fail")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty training set must fail")
	}
	one := map[TypeID][]fingerprint.Fingerprint{
		"only": synthType([]float64{60}, 5, 5, 1),
	}
	if _, err := Train(one, Config{}); err == nil {
		t.Error("single type must fail (no negatives)")
	}
	withEmpty := map[TypeID][]fingerprint.Fingerprint{
		"a": synthType([]float64{60}, 5, 5, 1),
		"b": nil,
	}
	if _, err := Train(withEmpty, Config{}); err == nil {
		t.Error("type with zero fingerprints must fail")
	}
}

func TestTypesSorted(t *testing.T) {
	id, _ := trainedIdentifier(t)
	ts := id.Types()
	want := []TypeID{"alpha", "beta", "gamma"}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("Types() = %v, want %v", ts, want)
		}
	}
}

func TestClassifyOnly(t *testing.T) {
	id, _ := trainedIdentifier(t)
	probe := synthType([]float64{60, 70, 80}, 1, 15, 400)[0]
	matches := id.ClassifyOnly(probe)
	found := false
	for _, m := range matches {
		if m == "alpha" {
			found = true
		}
	}
	if !found {
		t.Errorf("ClassifyOnly matches = %v, want alpha included", matches)
	}
}

func TestDeterministicTraining(t *testing.T) {
	samples := map[TypeID][]fingerprint.Fingerprint{
		"a": synthType([]float64{60, 70}, 10, 10, 1),
		"b": synthType([]float64{300, 310}, 10, 10, 2),
	}
	id1, err := Train(samples, Config{Seed: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	id2, err := Train(samples, Config{Seed: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	probe := synthType([]float64{60, 70}, 5, 10, 3)
	for i, fp := range probe {
		if id1.Identify(fp).Type != id2.Identify(fp).Type {
			t.Errorf("probe %d: same seed, different prediction", i)
		}
	}
}
func TestDiscriminationTieBreak(t *testing.T) {
	// Tie-break pin: when two candidates tie on dissimilarity, the
	// lexicographically-first match wins — Matches is sorted, scoring
	// walks it in order with the running best as each scorer's budget,
	// and a later candidate must be *strictly* better to take the lead.
	// A tied later candidate either completes with an equal score or is
	// abandoned right at the bound; it loses either way, and any worker
	// setting resolves identically because discrimination is
	// sequential.
	//
	// Exact ties are manufactured white-box: the twin types share one
	// size alphabet (different draws), keeping both classifiers near
	// 0.5 probability on a twin probe, and "a-near" is then given
	// "b-near"'s reference set verbatim so both score identically. The
	// loose accept threshold guarantees the discrimination stage runs.
	samples := map[TypeID][]fingerprint.Fingerprint{
		"b-near": synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 20, 15, 1),
		"a-near": synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 20, 15, 2),
		"z-far":  synthTypeProto([]float64{500, 510, 520}, features.FeatICMP, 20, 15, 3),
	}
	probe := synthTypeProto([]float64{60, 70, 80}, features.FeatUDP, 1, 15, 99)[0]
	var want Result
	for i, workers := range []int{1, 4} {
		id, err := Train(samples, Config{Seed: 42, Workers: workers, AcceptThreshold: 0.2})
		if err != nil {
			t.Fatalf("Train(workers=%d): %v", workers, err)
		}
		twin := id.models["b-near"]
		id.models["a-near"] = &typeModel{
			forest: id.models["a-near"].forest,
			refs:   twin.refs,
		}
		res := id.Identify(probe)
		if !res.Discriminated {
			t.Fatalf("workers=%d: probe not discriminated (matches=%v); tie-break unexercised", workers, res.Matches)
		}
		matchedBoth := false
		for _, m := range res.Matches {
			if m == "b-near" {
				matchedBoth = true
			}
		}
		if !matchedBoth {
			t.Fatalf("workers=%d: twin b-near not among matches %v; tie unexercised", workers, res.Matches)
		}
		sa, oka := res.Scores["a-near"]
		if !oka {
			t.Fatalf("workers=%d: first candidate a-near missing from Scores %v", workers, res.Scores)
		}
		// The twin shares a-near's references, so its exact score is
		// sa: it must either complete at exactly sa or be abandoned at
		// the bound — never win.
		if sb, okb := res.Scores["b-near"]; okb && sb != sa {
			t.Fatalf("workers=%d: twin scores not tied (a=%v b=%v)", workers, sa, sb)
		}
		if res.Type != "a-near" {
			t.Errorf("workers=%d: tie resolved to %q, want lexicographically-first %q", workers, res.Type, "a-near")
		}
		if i == 0 {
			want = res
		} else if res.Type != want.Type || res.EditDistances != want.EditDistances {
			t.Errorf("workers=%d: result diverged from sequential: %+v vs %+v", workers, res, want)
		}
	}
}
