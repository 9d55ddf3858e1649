package editdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

func word(s string) fingerprint.F {
	out := make(fingerprint.F, len(s))
	for i, c := range []byte(s) {
		out[i] = features.Packed(c)
	}
	return out
}

// sym packs a symbol that differs from others in its size and source
// port class — enough structure for the distance tests.
func sym(size, srcPortClass int) features.Packed {
	var v features.Vector
	v[features.FeatSize] = float64(size)
	v[features.FeatSrcPortClass] = float64(srcPortClass)
	p, err := features.Pack(v)
	if err != nil {
		panic(err)
	}
	return p
}

func TestDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want int
	}{
		{"both-empty", "", "", 0},
		{"empty-a", "", "abc", 3},
		{"empty-b", "abc", "", 3},
		{"identical", "kitten", "kitten", 0},
		{"substitutions", "kitten", "sitten", 1},
		{"levenshtein-classic", "kitten", "sitting", 3},
		{"transposition", "ca", "ac", 1},
		{"transposition-middle", "abcd", "acbd", 1},
		{"insert", "abc", "abxc", 1},
		{"delete", "abxc", "abc", 1},
		{"osa-ca-abc", "ca", "abc", 3}, // restricted DL, not full DL (2)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Distance(word(tt.a), word(tt.b)); got != tt.want {
				t.Errorf("Distance(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestNormalized(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want float64
	}{
		{"both-empty", "", "", 0},
		{"identical", "abcd", "abcd", 0},
		{"disjoint", "aaaa", "bbbb", 1},
		{"half", "ab", "ax", 0.5},
		{"against-empty", "abcd", "", 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Normalized(word(tt.a), word(tt.b)); got != tt.want {
				t.Errorf("Normalized(%q, %q) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestNormalizedBounded(t *testing.T) {
	tests := []struct {
		name   string
		a, b   string
		limit  float64
		want   float64
		wantOK bool
	}{
		{"both-empty", "", "", 0, 0, true},
		{"identical", "abcd", "abcd", 0, 0, true},
		{"at-limit", "ab", "ax", 0.5, 0.5, true},
		{"over-limit", "ab", "ax", 0.49, 0, false},
		{"disjoint-tight", "aaaa", "bbbb", 0.5, 0, false},
		{"disjoint-loose", "aaaa", "bbbb", 1, 1, true},
		{"against-empty", "abcd", "", 0.9, 0, false},
		{"negative-limit", "abcd", "abcd", -0.1, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := NormalizedBounded(word(tt.a), word(tt.b), tt.limit)
			if ok != tt.wantOK || (ok && got != tt.want) {
				t.Errorf("NormalizedBounded(%q, %q, %v) = (%v, %v), want (%v, %v)",
					tt.a, tt.b, tt.limit, got, ok, tt.want, tt.wantOK)
			}
		})
	}
}

// TestNormalizedBoundedAgreesWithExact: the accept/reject decision and
// the accepted value must match computing Normalized exactly and
// comparing against the limit — the property clustering linkage
// depends on.
func TestNormalizedBoundedAgreesWithExact(t *testing.T) {
	clamp := func(s []uint8) fingerprint.F {
		if len(s) > 20 {
			s = s[:20]
		}
		out := make(fingerprint.F, len(s))
		for i, c := range s {
			out[i] = features.Packed(c % 4)
		}
		return out
	}
	agree := func(a, b []uint8, lim uint8) bool {
		x, y := clamp(a), clamp(b)
		limit := float64(lim%128) / 100 // [0, 1.27] straddles the whole range
		exact := Normalized(x, y)
		got, ok := NormalizedBounded(x, y, limit)
		if exact <= limit {
			return ok && got == exact
		}
		return !ok
	}
	if err := quick.Check(agree, nil); err != nil {
		t.Errorf("bounded/exact agreement: %v", err)
	}
}

func TestDistanceProperties(t *testing.T) {
	clamp := func(s []uint8) fingerprint.F {
		if len(s) > 20 {
			s = s[:20]
		}
		out := make(fingerprint.F, len(s))
		for i, c := range s {
			out[i] = features.Packed(c % 4) // small alphabet encourages transpositions
		}
		return out
	}
	symmetry := func(a, b []uint8) bool {
		x, y := clamp(a), clamp(b)
		return Distance(x, y) == Distance(y, x)
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a []uint8) bool {
		x := clamp(a)
		return Distance(x, x) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	bounds := func(a, b []uint8) bool {
		x, y := clamp(a), clamp(b)
		d := Distance(x, y)
		maxLen := len(x)
		if len(y) > maxLen {
			maxLen = len(y)
		}
		diff := len(x) - len(y)
		if diff < 0 {
			diff = -diff
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(bounds, nil); err != nil {
		t.Errorf("bounds: %v", err)
	}
	normRange := func(a, b []uint8) bool {
		n := Normalized(clamp(a), clamp(b))
		return n >= 0 && n <= 1
	}
	if err := quick.Check(normRange, nil); err != nil {
		t.Errorf("normalized range: %v", err)
	}
}

// TestInterner checks the oracle's own symbol table (oracle_test.go):
// the retired interning path is what the word-compare DP is held to.
func TestInterner(t *testing.T) {
	in := newInterner()
	a, b := sym(60, 0), sym(90, 0)
	w := in.word(fingerprint.F{a, b, a})
	if len(w) != 3 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] != w[2] || w[0] == w[1] {
		t.Errorf("interning wrong: %v", w)
	}
	if len(in.symbols) != 2 {
		t.Errorf("size = %d, want 2", len(in.symbols))
	}
}

func TestFingerprintDistance(t *testing.T) {
	a, b, c := sym(60, 0), sym(90, 0), sym(120, 0)
	f1 := fingerprint.F{a, b, c}
	f2 := fingerprint.F{a, b, c}
	if d := Normalized(f1, f2); d != 0 {
		t.Errorf("identical fingerprints: distance %v", d)
	}
	f3 := fingerprint.F{a, c, b} // one transposition of 3 characters
	if d := Normalized(f1, f3); d != 1.0/3.0 {
		t.Errorf("transposed fingerprints: distance %v, want 1/3", d)
	}
	if d := Normalized(f1, nil); d != 1 {
		t.Errorf("distance to empty = %v, want 1", d)
	}
}

func mkF(n, seed int) fingerprint.F {
	var f fingerprint.F
	for i := 0; i < n; i++ {
		f = append(f, sym((i*13+seed)%11*60, (i+seed)%3))
	}
	return f
}

func TestRefSetMatchesFingerprintDistance(t *testing.T) {
	refs := []fingerprint.F{mkF(40, 5), mkF(35, 9), mkF(40, 2), mkF(12, 7), mkF(28, 3)}
	rs := NewRefSet(refs)
	if rs.Len() != len(refs) {
		t.Fatalf("Len = %d, want %d", rs.Len(), len(refs))
	}
	for _, cand := range []fingerprint.F{mkF(40, 1), mkF(33, 5), mkF(1, 0), nil, refs[2]} {
		var want float64
		for _, ref := range refs {
			want += Normalized(cand, ref)
		}
		got, n := rs.DistanceSum(cand)
		if n != len(refs) {
			t.Errorf("DistanceSum n = %d, want %d", n, len(refs))
		}
		if got != want {
			t.Errorf("DistanceSum = %v, want %v (per-reference Normalized sum)", got, want)
		}
	}
}

func TestRefSetEmpty(t *testing.T) {
	rs := NewRefSet(nil)
	sum, n := rs.DistanceSum(mkF(10, 1))
	if sum != 0 || n != 0 {
		t.Errorf("empty RefSet: sum=%v n=%d, want 0, 0", sum, n)
	}
}

func TestRefSetConcurrent(t *testing.T) {
	rs := NewRefSet([]fingerprint.F{mkF(40, 5), mkF(35, 9)})
	want, _ := rs.DistanceSum(mkF(40, 1))
	done := make(chan float64, 8)
	for i := 0; i < 8; i++ {
		go func() {
			sum, _ := rs.DistanceSum(mkF(40, 1))
			done <- sum
		}()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; got != want {
			t.Errorf("concurrent DistanceSum = %v, want %v", got, want)
		}
	}
}

func benchWord(n int, seed int) fingerprint.F {
	out := make(fingerprint.F, n)
	for i := range out {
		out[i] = features.Packed((i*7 + seed) % 9)
	}
	return out
}

func BenchmarkDistance32(b *testing.B) {
	a, c := benchWord(32, 1), benchWord(32, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Distance(a, c)
	}
}

func BenchmarkDistance128(b *testing.B) {
	a, c := benchWord(128, 1), benchWord(128, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Distance(a, c)
	}
}

func BenchmarkFingerprintDistance(b *testing.B) {
	x, y := mkF(40, 1), mkF(40, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Normalized(x, y)
	}
}

// typeF builds a fingerprint for one synthetic device type: an
// unrelated base packet sequence per type seed, with nMut columns
// perturbed to model capture-to-capture variation within the type.
func typeF(typeSeed, n, nMut, mutSeed int) fingerprint.F {
	rng := rand.New(rand.NewSource(int64(typeSeed)))
	f := make(fingerprint.F, n)
	for i := range f {
		f[i] = sym(rng.Intn(12)*60, rng.Intn(3))
	}
	for m := 0; m < nMut && m < n; m++ {
		i := (m*17 + mutSeed*5) % n
		f[i] = sym(2000+i*31+mutSeed*7, 0)
	}
	return f
}

// discriminationPair is the production discrimination shape of Sect.
// IV-B2: the candidate fingerprint belongs to type A (close to all of
// A's references), and is also scored against sibling type B (an
// unrelated packet sequence). Returns B's RefSet, the candidate, and
// the current-best bound A's exact score established.
func discriminationPair() (rsB *RefSet, cand fingerprint.F, best float64) {
	refsA := make([]fingerprint.F, 5)
	refsB := make([]fingerprint.F, 5)
	for i := range refsA {
		refsA[i] = typeF(1, 40, 1, i+1)
		refsB[i] = typeF(2, 40, 1, i+1)
	}
	cand = typeF(1, 40, 1, 9)
	best, _ = NewRefSet(refsA).DistanceSum(cand)
	return NewRefSet(refsB), cand, best
}

// BenchmarkDiscriminateRefSet is the production hot path of one
// discrimination scoring call: every type after the first is scored
// under the current best sum as its bound, abandoning as soon as it
// provably cannot win. (The first, unbounded scoring is
// BenchmarkDiscriminateRefSetExact.)
func BenchmarkDiscriminateRefSet(b *testing.B) {
	rsB, cand, best := discriminationPair()
	if _, _, pruned := rsB.DistanceSumBounded(cand, best); !pruned {
		b.Fatalf("losing type not pruned (best=%v): benchmark setup drifted", best)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = rsB.DistanceSumBounded(cand, best)
	}
}

// BenchmarkDiscriminateRefSetExact is the unbudgeted scoring (the
// first candidate of every discrimination, and the old hot path for
// all of them): every reference fully computed.
func BenchmarkDiscriminateRefSetExact(b *testing.B) {
	rs := NewRefSet([]fingerprint.F{mkF(40, 5), mkF(35, 9), mkF(40, 2), mkF(12, 7), mkF(28, 3)})
	cand := mkF(40, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = rs.DistanceSum(cand)
	}
}

// BenchmarkDiscriminateRefSetBlocked is BenchmarkDiscriminateRefSetExact
// over words of 90 to 130 symbols: every reference runs the blocked
// kernel, two or three 64-symbol blocks per text symbol.
func BenchmarkDiscriminateRefSetBlocked(b *testing.B) {
	rs := NewRefSet([]fingerprint.F{mkF(120, 5), mkF(105, 9), mkF(130, 2), mkF(90, 7), mkF(110, 3)})
	cand := mkF(120, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = rs.DistanceSum(cand)
	}
}
