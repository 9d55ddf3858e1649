package editdist

import (
	"bytes"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// fuzzMaxLen caps fuzzed words at three 64-symbol blocks.
const fuzzMaxLen = 192

// fuzzWord maps bytes to symbols, one each, capped at fuzzMaxLen.
func fuzzWord(b []byte) fingerprint.F {
	if len(b) > fuzzMaxLen {
		b = b[:fuzzMaxLen]
	}
	w := make(fingerprint.F, len(b))
	for i, c := range b {
		w[i] = features.Packed(c)
	}
	return w
}

// seedWord is an n-byte word over a five-letter alphabet, shifted by k.
func seedWord(n, k int) []byte {
	w := make([]byte, n)
	for i := range w {
		w[i] = byte('a' + (i*7+k+i/9)%5)
	}
	return w
}

// FuzzBandedDistance (named for the banded DP it first checked) drives
// Distance and DistanceBounded against the retained naive full-matrix
// reference over arbitrary byte strings and thresholds: within the
// limit the distance must be exact, above it the result must report
// exceeded — for any inputs, not just the fingerprint-shaped ones the
// unit tests draw. The seeds straddle the kernel's 64-symbol blocks.
func FuzzBandedDistance(f *testing.F) {
	f.Add([]byte("kitten"), []byte("sitting"), 2)
	f.Add([]byte("ab"), []byte("ba"), 1)
	f.Add([]byte(""), []byte("abc"), 0)
	f.Add([]byte("abcdabcd"), []byte("abcdabcd"), 0)
	f.Add([]byte{0, 1, 2, 250}, []byte{2, 1, 0}, 3)
	f.Add(bytes.Repeat([]byte("ab"), 40), bytes.Repeat([]byte("ba"), 40), 7)
	for _, n := range []int{63, 64, 65, 127, 128, 129, 192} {
		f.Add(seedWord(n, 0), seedWord(n, 1), n/3)
		f.Add(seedWord(n, 0), seedWord(n+1, 0), n)
	}
	// A transposition across the first block boundary.
	w, tw := seedWord(128, 0), seedWord(128, 0)
	tw[63], tw[64] = 'z', w[63]
	w[64] = 'z'
	f.Add(w, tw, 2)
	f.Add(bytes.Repeat([]byte("a"), 70), bytes.Repeat([]byte("a"), 129), 60)
	f.Fuzz(func(t *testing.T, ab, bb []byte, limit int) {
		a, b := fuzzWord(ab), fuzzWord(bb)
		// Keep the limit in a range where limit+1 cannot overflow;
		// negative limits must always report exceeded.
		limit = min(max(limit, -1), 2*fuzzMaxLen)
		want := naiveDistance(a, b)
		if got := Distance(a, b); got != want {
			t.Fatalf("Distance = %d, naive %d (a=%v b=%v)", got, want, a, b)
		}
		got := DistanceBounded(a, b, limit)
		if want <= limit && got != want {
			t.Fatalf("DistanceBounded(limit=%d) = %d, naive %d (a=%v b=%v)", limit, got, want, a, b)
		}
		if want > limit && got <= limit {
			t.Fatalf("DistanceBounded(limit=%d) = %d claims within bound, naive %d (a=%v b=%v)", limit, got, want, a, b)
		}
	})
}

// FuzzDistanceSum holds RefSet.DistanceSumBounded to naiveDistanceSum
// for arbitrary references (refs split at each 0xff byte), probe and
// limit: the sum bit-identical, n and pruned equal.
func FuzzDistanceSum(f *testing.F) {
	f.Add([]byte("abcde\xffabdce\xffxyz"), []byte("abcdf"), 1.5)
	f.Add([]byte("abcde\xffabdce\xffxyz"), []byte("abcdf"), 0.0)
	f.Add([]byte("\xff\xffab"), []byte(""), 2.0)
	f.Add(append(append(seedWord(65, 0), 0xff), seedWord(129, 2)...), seedWord(100, 1), 1.2)
	f.Add(append(append(seedWord(20, 0), 0xff), seedWord(20, 3)...), seedWord(20, 1), 0.9)
	f.Fuzz(func(t *testing.T, refsRaw, probe []byte, limit float64) {
		var refs []fingerprint.F
		for _, r := range bytes.Split(refsRaw, []byte{0xff}) {
			if len(refs) == 8 {
				break
			}
			refs = append(refs, fuzzWord(r))
		}
		checkDistanceSum(t, NewRefSet(refs), fuzzWord(probe), limit)
	})
}
