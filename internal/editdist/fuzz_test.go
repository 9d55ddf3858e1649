package editdist

import (
	"bytes"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// FuzzBandedDistance drives the banded/early-exit walk against the
// retained naive full-matrix reference over arbitrary byte strings and
// thresholds: within the limit the distance must be exact, above it
// the result must report exceeded — for any inputs, not just the
// fingerprint-shaped ones the unit tests draw.
func FuzzBandedDistance(f *testing.F) {
	f.Add([]byte("kitten"), []byte("sitting"), 2)
	f.Add([]byte("ab"), []byte("ba"), 1)
	f.Add([]byte(""), []byte("abc"), 0)
	f.Add([]byte("abcdabcd"), []byte("abcdabcd"), 0)
	f.Add([]byte{0, 1, 2, 250}, []byte{2, 1, 0}, 3)
	f.Add(bytes.Repeat([]byte("ab"), 40), bytes.Repeat([]byte("ba"), 40), 7)
	f.Fuzz(func(t *testing.T, ab, bb []byte, limit int) {
		const maxLen = 192
		if len(ab) > maxLen {
			ab = ab[:maxLen]
		}
		if len(bb) > maxLen {
			bb = bb[:maxLen]
		}
		a := make(fingerprint.F, len(ab))
		for i, c := range ab {
			a[i] = features.Packed(c)
		}
		b := make(fingerprint.F, len(bb))
		for i, c := range bb {
			b[i] = features.Packed(c)
		}
		// Keep the limit in a range where limit+1 cannot overflow and
		// the band stays affordable; negative limits must always
		// report exceeded.
		if limit > 2*maxLen {
			limit = 2 * maxLen
		}
		if limit < -1 {
			limit = -1
		}
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
