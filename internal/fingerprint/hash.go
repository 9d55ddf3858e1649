package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Key is the canonical content hash of a Fingerprint, usable as a map
// key. Two fingerprints with the same Key have the same F, and F is
// everything: F′ and UniqueCount are functions of it. The
// identification cache relies on this — the bank reads only F from a
// probe — to guarantee that a cached answer is bit-identical to what
// the classifier bank would have produced.
type Key [sha256.Size]byte

// keyBufPool recycles the serialization buffer CanonicalKey hashes
// over, so the steady-state cache-probe path never allocates. Pooling a
// *[]byte (not a []byte) keeps the Put interface-boxing free.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// CanonicalKey hashes the fingerprint into its canonical Key: SHA-256
// over len(F) as a little-endian u64 followed by each packed symbol of
// F as a little-endian u64 — 8 bytes per row. It stays a cryptographic
// hash because the cache it keys is security-relevant: a collision an
// attacker could construct would be cache poisoning. FPrime and
// UniqueCount are deliberately not hashed; a hand-built Fingerprint
// whose FPrime disagrees with its F keys (and identifies) as its F.
func (fp *Fingerprint) CanonicalKey() Key { return fp.F.CanonicalKey() }

// CanonicalKey is the Key of every Fingerprint whose F is f.
func (f F) CanonicalKey() Key {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]

	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f)))
	for _, p := range f {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
	}

	k := Key(sha256.Sum256(buf))
	*bp = buf
	keyBufPool.Put(bp)
	return k
}
