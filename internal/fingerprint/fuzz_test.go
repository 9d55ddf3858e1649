package fingerprint_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// refPrime is F.Prime as it stood before Head existed, kept verbatim as
// the oracle: the float views of the first len(dst)/features.Count
// globally unique symbols of f, zero padded, and how many were used.
func refPrime(f fingerprint.F, dst []float64) int {
	n := len(dst) / features.Count
	var taken [fingerprint.UniquePackets]features.Packed
	seen := taken[:0]
	if n > fingerprint.UniquePackets {
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
		fp := make(fingerprint.F, len(data))
		for i, b := range data {
			fp[i] = fuzzSymbol(b)
		}
		head := fp.Head()
		var got, want fingerprint.FPrime
		got[0], got[fingerprint.FPrimeLen-1] = -1, -1 // Prime must overwrite all of dst
		head.Prime(&got)
		if n := refPrime(fp, want[:]); n != head.N || got != want {
			t.Fatalf("Head().Prime differs from the retired F.Prime for %v (N %d, retired %d)", fp, head.N, n)
		}
		for i := head.N; i < fingerprint.UniquePackets; i++ {
			if head.Syms[i] != 0 {
				t.Fatalf("slot %d past N=%d is %#x: equal heads would compare unequal", i, head.N, uint64(head.Syms[i]))
			}
		}

		// Past the head: once it is full anything may follow, before
		// that only symbols it already holds.
		grown := append(fingerprint.F(nil), fp...)
		for _, b := range tail {
			switch {
			case head.N == fingerprint.UniquePackets:
				grown = append(grown, fuzzSymbol(b))
			case head.N > 0:
				grown = append(grown, head.Syms[int(b)%head.N])
			}
		}
		var grownPrime fingerprint.FPrime
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
		changed := append(fingerprint.F(nil), fp...)
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

// FuzzDecodeF throws arbitrary bytes at the packed-F decoder every
// reader of a stored or sent F goes through (the HTTP assess body, the
// fleet wire, the store, the model file). It must not panic; a block
// that claims more rows than the input holds must be refused before
// anything of that size is allocated; and an accepted block — the bytes
// DecodeF consumed — re-encodes to itself, and its fingerprint is what
// FromPacked makes of its words.
func FuzzDecodeF(f *testing.F) {
	for _, typ := range []string{"Aria", "EdnetCam"} {
		p, err := devices.ProfileByID(typ)
		if err != nil {
			f.Fatal(err)
		}
		body, err := fingerprint.AppendF(nil, fingerprint.FromPackets(devices.GenerateCaptures(p, 1, 7)[0].Packets).F)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)-3])
		f.Add(append(body, 0))
	}
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte(`{"f":[[60,0,0]]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		claimed := 0
		if len(body) >= 2 {
			claimed = int(binary.BigEndian.Uint16(body))
		}
		if short := len(body)-2 < 8*claimed; short && claimed >= 1024 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := fingerprint.DecodeF(body)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted %d bytes claiming %d rows", len(body), claimed)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(8*claimed) {
				t.Fatalf("refusing %d bytes that claim %d rows allocated %d bytes", len(body), claimed, got)
			}
			return
		}
		decoded, rest, err := fingerprint.DecodeF(body)
		if err != nil {
			return
		}
		block := body[:len(body)-len(rest)]
		if len(decoded) != claimed || len(block) != 2+8*claimed {
			t.Fatalf("accepted a %d-byte block claiming %d rows as %d rows", len(block), claimed, len(decoded))
		}
		words := make(fingerprint.F, claimed)
		for i := range words {
			words[i] = features.Packed(binary.BigEndian.Uint64(block[2+8*i:]))
		}
		if !words.Valid() {
			t.Fatalf("accepted a word the extractor cannot produce: %x", block)
		}
		if re, err := fingerprint.AppendF(nil, decoded); err != nil || !bytes.Equal(re, block) {
			t.Fatalf("accepted block does not re-encode to itself (%v):\n got %x\nwant %x", err, re, block)
		}
		got, err := fingerprint.FromF(decoded)
		if want := fingerprint.FromPacked(words); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded fingerprint is not FromPacked of the block's words (%v):\n got %+v\nwant %+v", err, got, want)
		}
	})
}
