package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/testutil"
)

func vecWith(size float64) features.Vector {
	var v features.Vector
	v[features.FeatSize] = size
	return v
}

func TestCanonicalKeyDeterministic(t *testing.T) {
	fp := FromVectors([]features.Vector{vecWith(60), vecWith(90), vecWith(60)})
	other := FromVectors([]features.Vector{vecWith(60), vecWith(90), vecWith(60)})
	if fp.CanonicalKey() != other.CanonicalKey() {
		t.Error("identical fingerprints hash to different keys")
	}
	if fp.CanonicalKey() != fp.CanonicalKey() {
		t.Error("CanonicalKey is not stable across calls")
	}
}

func TestCanonicalKeySensitivity(t *testing.T) {
	base := FromVectors([]features.Vector{vecWith(60), vecWith(90)})
	cases := map[string]Fingerprint{
		"different feature value": FromVectors([]features.Vector{vecWith(61), vecWith(90)}),
		"different order":         FromVectors([]features.Vector{vecWith(90), vecWith(60)}),
		"longer F":                FromVectors([]features.Vector{vecWith(60), vecWith(90), vecWith(120)}),
		"shorter F":               FromVectors([]features.Vector{vecWith(60)}),
	}
	for name, fp := range cases {
		if fp.CanonicalKey() == base.CanonicalKey() {
			t.Errorf("%s: collided with the base fingerprint", name)
		}
	}
}

// The key is a function of F alone: F′ and UniqueCount derive from F,
// and the bank behind the cache reads only F (core pins that side in
// TestCacheIgnoresHandBuiltFPrime), so tampering with the derived
// fields must not mint a second key for the same F.
func TestCanonicalKeyIsFunctionOfF(t *testing.T) {
	a := FromVectors([]features.Vector{vecWith(60), vecWith(90)})
	b := a
	b.FPrime[0] += 1
	b.UniqueCount++
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("key depends on fields derived from F")
	}
}

func TestCanonicalKeyEmpty(t *testing.T) {
	var zero Fingerprint
	nonEmpty := FromVectors([]features.Vector{vecWith(60)})
	if zero.CanonicalKey() == nonEmpty.CanonicalKey() {
		t.Error("empty fingerprint collides with non-empty")
	}
}

// refCanonicalKey is a streaming implementation of the key's byte
// stream — len(F), then one word per row, all little-endian u64 — kept
// as the oracle for the one-shot pooled-buffer path.
func refCanonicalKey(fp *Fingerprint) Key {
	h := sha256.New()
	var b [8]byte

	binary.LittleEndian.PutUint64(b[:], uint64(len(fp.F)))
	h.Write(b[:])
	for _, p := range fp.F {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}

	var k Key
	h.Sum(k[:0])
	return k
}

func TestCanonicalKeyMatchesStreamingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	probes := []Fingerprint{{}, FromVectors([]features.Vector{vecWith(60)})}
	for trial := 0; trial < 50; trial++ {
		ps := make([]features.Packed, rng.Intn(40))
		for i := range ps {
			ps[i] = features.Packed(rng.Uint64() >> 1) // reserved bit clear
		}
		probes = append(probes, FromPacked(ps))
	}
	for i, fp := range probes {
		if got, want := fp.CanonicalKey(), refCanonicalKey(&fp); got != want {
			t.Fatalf("probe %d: CanonicalKey %x, streaming oracle %x", i, got, want)
		}
	}
}

func TestCanonicalKeyZeroAlloc(t *testing.T) {
	vs := make([]features.Vector, 25)
	for i := range vs {
		vs[i] = vecWith(float64(60 * i))
	}
	fp := FromVectors(vs)
	testutil.AssertZeroAllocs(t, "CanonicalKey", func() { _ = fp.CanonicalKey() })
}

func BenchmarkCanonicalKey(b *testing.B) {
	vs := make([]features.Vector, 25)
	for i := range vs {
		vs[i] = vecWith(float64(60 * i))
	}
	fp := FromVectors(vs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fp.CanonicalKey()
	}
}
