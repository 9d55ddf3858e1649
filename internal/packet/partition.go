package packet

import "encoding/binary"

// One partition places a device, by its source MAC, in every structure
// that splits per-device state into parts: the capture fanout's rings
// (one per reader), the gateway's shards and the switch's port stripes.
// Each takes its part index from the top bits of one product, so the
// indices are nested fields of it: with rings ≤ shards ≤ stripes, a
// shard's devices all come from one ring and a stripe's from one shard,
// and each reader owns a contiguous block of shards and stripes that no
// other reader touches. The ring takes the high bits for that reason: a
// low-bit ring index would interleave the readers across every block of
// neighbouring shards and stripes. A structure with fewer parts than
// another above it (more readers than shards, or than the switch's 64
// stripes) shares its parts between readers, which is still correct,
// only contended.

// MACWord is a MAC's six bytes read as a little-endian integer, in the
// low 48 bits: two loads, no byte swap. Every per-device map past the
// capture keys on it — a probe takes the runtime's 64-bit map path where
// a [6]byte key is hashed a byte at a time — and Part hashes it.
type MACWord uint64

// Word returns m's word.
func (m MAC) Word() MACWord {
	return MACWord(binary.LittleEndian.Uint32(m[:4])) | MACWord(binary.LittleEndian.Uint16(m[4:]))<<32
}

// Part returns w's index among the parts a shift from Parts splits into:
// the top 64−shift bits of w·0x9e3779b97f4a7c15 (Fibonacci hashing; the
// top bits of the product mix every bit of the address).
func (w MACWord) Part(shift uint8) int { return int(uint64(w) * 0x9e3779b97f4a7c15 >> shift) }

// Parts rounds a part count up to a power of two, at least 1, and returns
// it with the shift Part takes to split among that many (64 for one part:
// every word is part 0).
func Parts(n int) (count int, shift uint8) {
	count, shift = 1, 64
	for count < n {
		count <<= 1
		shift--
	}
	return count, shift
}
