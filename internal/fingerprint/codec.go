package fingerprint

import (
	"encoding/binary"
	"fmt"
	"math"

	"iotsentinel/internal/features"
)

// The packed-F codec: the one byte layout of an F outside the process,
// shared by the fleet wire's batch frames, the store's journal records
// and snapshot rows, and the body of the HTTP assess request. Big-endian,
// as fleet protocol v2 fixed it:
//
//	u16 rows, then rows × u64 features.Packed
//
// Only F travels; F′ is re-derived by the reader (FromPacked), so the
// two representations cannot desynchronize.

// Valid reports whether every row of f is a symbol the extractor can
// produce (features.Packed.Valid).
func (f F) Valid() bool {
	for _, p := range f {
		if !p.Valid() {
			return false
		}
	}
	return true
}

// FromF builds a Fingerprint from an F that was stored or sent rather
// than extracted — a journal record, a snapshot row — re-deriving F′. A
// row the extractor cannot produce is an error.
func FromF(f F) (Fingerprint, error) {
	if !f.Valid() {
		return Fingerprint{}, fmt.Errorf("fingerprint: F holds a word that is not a packed feature symbol")
	}
	return FromPacked(f), nil
}

// AppendF appends the encoding of f to dst.
func AppendF(dst []byte, f F) ([]byte, error) {
	if len(f) > math.MaxUint16 {
		return dst, fmt.Errorf("fingerprint: F has %d rows, the codec carries at most %d", len(f), math.MaxUint16)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f)))
	for _, p := range f {
		dst = binary.BigEndian.AppendUint64(dst, uint64(p))
	}
	return dst, nil
}

// DecodeF reads one encoded F from the front of p and returns it (not
// aliasing p) with the bytes that follow. The row count is checked
// against len(p) before anything is allocated, and a word that is not a
// symbol the extractor produces fails the decode.
func DecodeF(p []byte) (F, []byte, error) {
	if len(p) < 2 {
		return nil, p, fmt.Errorf("fingerprint: F truncated before its row count")
	}
	rows := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < rows*8 {
		return nil, p, fmt.Errorf("fingerprint: F truncated (%d of %d bytes)", len(p), rows*8)
	}
	var f F
	if rows > 0 {
		f = make(F, rows)
	}
	for r := range f {
		f[r] = features.Packed(binary.BigEndian.Uint64(p[r*8:]))
		if !f[r].Valid() {
			return nil, p, fmt.Errorf("fingerprint: row %d: %#x is not a packed feature symbol", r, uint64(f[r]))
		}
	}
	return f, p[rows*8:], nil
}
