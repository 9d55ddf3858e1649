package packet

import (
	"math/rand/v2"
	"testing"
)

// TestMACWordRoundTrip: the word is injective on MACs — mac inverts it —
// and sets no bit above the 48th.
func TestMACWordRoundTrip(t *testing.T) {
	mac := func(w MACWord) MAC {
		return MAC{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24), byte(w >> 32), byte(w >> 40)}
	}
	seen := make(map[MACWord]MAC)
	for _, m := range []MAC{{}, {0x02, 0xd0, 0, 0, 0, 1}, {0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc},
		{1, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 1}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff}} {
		w := m.Word()
		if mac(w) != m {
			t.Errorf("%v's word unpacks to %v", m, mac(w))
		}
		if w>>48 != 0 {
			t.Errorf("%v's word %#x sets bits above 48", m, uint64(w))
		}
		if prev, dup := seen[w]; dup {
			t.Errorf("%v and %v share word %#x", prev, m, uint64(w))
		}
		seen[w] = m
	}
}

func TestParts(t *testing.T) {
	for _, c := range []struct {
		in, want int
		shift    uint8
	}{
		{-1, 1, 64}, {0, 1, 64}, {1, 1, 64}, {2, 2, 63}, {3, 4, 62}, {5, 8, 61},
		{8, 8, 61}, {9, 16, 60}, {64, 64, 58}, {100, 128, 57},
	} {
		if n, shift := Parts(c.in); n != c.want || shift != c.shift {
			t.Errorf("Parts(%d) = %d, %d; want %d, %d", c.in, n, shift, c.want, c.shift)
		}
	}
	w := MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}.Word()
	for n := 1; n <= 1024; n++ {
		count, shift := Parts(n)
		if p := w.Part(shift); p < 0 || p >= count {
			t.Fatalf("part %d of %d", p, count)
		}
	}
}

// placement is where a device lands in each structure split by MAC: the
// capture fanout's ring, the gateway's shard (each for a configured
// count, rounded as the structure rounds it) and the switch's port
// stripe, one of 64.
type placement struct {
	ring   func(m MAC, rings int) int
	shard  func(m MAC, shards int) int
	stripe func(m MAC) int
}

// partition is the placement capture.Fanout, the gateway and
// sdn.FlowTable make.
var partition = placement{
	ring: func(m MAC, rings int) int {
		_, shift := Parts(rings)
		return m.Word().Part(shift)
	},
	shard: func(m MAC, shards int) int {
		_, shift := Parts(shards)
		return m.Word().Part(shift)
	},
	stripe: func(m MAC) int { return m.Word().Part(64 - 6) },
}

// partitionMACs is 10 000 addresses: half sequential in their low bytes,
// as a vendor's devices are, half drawn at random from a fixed seed.
func partitionMACs() []MAC {
	rng := rand.New(rand.NewPCG(46, 17))
	macs := make([]MAC, 0, 10000)
	for i := 0; i < 5000; i++ {
		macs = append(macs, MAC{0x02, 0xbe, 0, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	for len(macs) < cap(macs) {
		var m MAC
		for j := range m {
			m[j] = byte(rng.Uint32())
		}
		macs = append(macs, m)
	}
	return macs
}

// checkNested requires, for every ring count 1..64 and shard count
// 1..256, each stripe's devices — and each shard's, when there are at
// least as many shards as rings — to come from one ring only, so no two
// capture readers share a stripe or a shard; and every ring, shard and
// stripe to hold a device.
func checkNested(t *testing.T, p placement) {
	t.Helper()
	macs := partitionMACs()
	for rings := 1; rings <= 64; rings *= 2 {
		ringOf := make([]int, len(macs))
		ringsSeen := make(map[int]bool)
		for i, m := range macs {
			ringOf[i] = p.ring(m, rings)
			ringsSeen[ringOf[i]] = true
		}
		if len(ringsSeen) != rings {
			t.Errorf("%d rings: %d hold a device", rings, len(ringsSeen))
		}
		if s, r, r2, ok := oneRingEach(64, ringOf, macs, p.stripe); !ok {
			t.Errorf("%d rings: stripe %d takes devices of rings %d and %d", rings, s, r, r2)
		} else if s >= 0 {
			t.Errorf("%d rings: stripe %d holds no device", rings, s)
		}
		for shards := 1; shards <= 256; shards++ {
			n, _ := Parts(shards)
			shard := func(m MAC) int { return p.shard(m, shards) }
			s, r, r2, ok := oneRingEach(n, ringOf, macs, shard)
			if !ok && n >= rings {
				t.Errorf("%d rings, %d shards: shard %d takes devices of rings %d and %d", rings, shards, s, r, r2)
			} else if ok && s >= 0 {
				t.Errorf("%d rings, %d shards: shard %d holds no device", rings, shards, s)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// oneRingEach places macs in n parts by part and reports whether each
// part's devices come from one ring, by ringOf: if not, a part that
// takes two and the two rings; if so, a part holding no device, or -1.
func oneRingEach(n int, ringOf []int, macs []MAC, part func(MAC) int) (p, r, r2 int, ok bool) {
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for i, m := range macs {
		p := part(m)
		if o := owner[p]; o >= 0 && o != ringOf[i] {
			return p, o, ringOf[i], false
		}
		owner[p] = ringOf[i]
	}
	for p, o := range owner {
		if o < 0 {
			return p, 0, 0, true
		}
	}
	return -1, 0, 0, true
}

// TestPartitionNests: a ring's devices fill stripes and shards no other
// ring's take. The functions the partition replaced — FNV-1a for the
// ring and the shard, and the stripe's Fibonacci hash (the one Part
// keeps) — fail it at two rings: stripes took both rings' devices.
func TestPartitionNests(t *testing.T) { checkNested(t, partition) }
