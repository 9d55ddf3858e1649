package fingerprint

import (
	"testing"

	"iotsentinel/internal/features"
)

// refPrime is F.Prime as it stood before Head existed, kept verbatim as
// the oracle: the float views of the first len(dst)/features.Count
// globally unique symbols of f, zero padded, and how many were used.
func refPrime(f F, dst []float64) int {
	n := len(dst) / features.Count
	var taken [UniquePackets]features.Packed
	seen := taken[:0]
	if n > UniquePackets {
		seen = make([]features.Packed, 0, n)
	}
rows:
	for _, p := range f {
		if len(seen) == n {
			break
		}
		for _, q := range seen {
			if p == q {
				continue rows
			}
		}
		p.PutVector(dst[len(seen)*features.Count:])
		seen = append(seen, p)
	}
	clear(dst[len(seen)*features.Count:])
	return len(seen)
}

// fuzzSymbol spreads one input byte over a valid packed symbol, so
// short inputs repeat symbols — the case uniqueness is about.
func fuzzSymbol(b byte) features.Packed {
	return features.Packed(uint64(b)*0x9E3779B97F4A7C15) &^ (1 << 63) // the reserved bit stays clear
}

// FuzzHead pins the memo key to what it stands for. For any symbol
// sequence: the head's F′ is the F′ the retired F.Prime derived; a
// sequence that differs only past its head has an equal head and an
// equal F′; one that differs at a first occurrence inside the head has
// a different head.
func FuzzHead(f *testing.F) {
	f.Add([]byte{}, uint8(0), []byte{})
	f.Add([]byte{1, 2, 1, 3}, uint8(2), []byte{1, 1, 2})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, uint8(11), []byte{99, 98})
	f.Add([]byte{7, 7, 7, 7, 8, 8, 7}, uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, at uint8, tail []byte) {
		fp := make(F, len(data))
		for i, b := range data {
			fp[i] = fuzzSymbol(b)
		}
		head := fp.Head()
		var got, want FPrime
		got[0], got[FPrimeLen-1] = -1, -1 // Prime must overwrite all of dst
		head.Prime(&got)
		if n := refPrime(fp, want[:]); n != head.N || got != want {
			t.Fatalf("Head().Prime differs from the retired F.Prime for %v (N %d, retired %d)", fp, head.N, n)
		}
		for i := head.N; i < UniquePackets; i++ {
			if head.Syms[i] != 0 {
				t.Fatalf("slot %d past N=%d is %#x: equal heads would compare unequal", i, head.N, uint64(head.Syms[i]))
			}
		}

		// Past the head: once it is full anything may follow, before
		// that only symbols it already holds.
		grown := append(F(nil), fp...)
		for _, b := range tail {
			switch {
			case head.N == UniquePackets:
				grown = append(grown, fuzzSymbol(b))
			case head.N > 0:
				grown = append(grown, head.Syms[int(b)%head.N])
			}
		}
		var grownPrime FPrime
		gh := grown.Head()
		gh.Prime(&grownPrime)
		if gh != head || grownPrime != got {
			t.Fatalf("%v and %v differ only past the head, yet heads %v / %v", fp, grown, head, gh)
		}

		// Inside the head: replace the first occurrence of its at-th
		// symbol by one the sequence does not hold.
		if head.N == 0 {
			return
		}
		k := int(at) % head.N
		fresh := features.Packed(1)
	search:
		for {
			for _, p := range fp {
				if p == fresh {
					fresh++
					continue search
				}
			}
			break
		}
		changed := append(F(nil), fp...)
		for i, p := range changed {
			if p == head.Syms[k] {
				changed[i] = fresh
				break
			}
		}
		if ch := changed.Head(); ch == head {
			t.Fatalf("%v and %v differ at unique symbol %d, yet share head %v", fp, changed, k, head)
		}
	})
}
