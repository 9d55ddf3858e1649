package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Journal wire format: segment files, each a sequence of
// length-prefixed, CRC32C-framed records. A frame is
//
//	uint32 LE  payload length
//	uint32 LE  CRC32C(payload)
//	uint32 LE  CRC32C(first 8 header bytes)
//	payload    one binary Event (codec.go)
//
// The header carries its own CRC so a flipped bit in the length field
// is detected as corruption instead of silently re-framing the rest of
// the file. Recovery distinguishes two kinds of damage:
//
//   - Torn tail: the final frame of the newest segment is incomplete.
//     This is the normal residue of a crash mid-append — the tail is
//     truncated with a warning and recovery stays clean.
//   - Corruption: a CRC or decode failure on a frame whose bytes are
//     all present, or an incomplete frame in a segment that was rotated
//     out (rotation fsyncs a segment before the next one exists). Frame
//     boundaries after it in that segment cannot be trusted, so the
//     segment's scan stops and recovery is flagged degraded — the caller
//     must fail closed for the state it rebuilds, because the lost
//     records may have hidden a demotion. Later segments have boundaries
//     of their own and still replay.
//
// Segments are named after the first sequence number they may hold, so
// name order is record order. A checkpoint rotates to a new segment at
// the snapshot's sequence number and, once the snapshot is durable,
// unlinks the older ones whole: no record is ever read back and
// rewritten.

var crc32c = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 12
	// maxFrameLen bounds one record; anything larger in a header is
	// corruption even if its CRC matches (defense in depth — it cannot
	// happen through Append).
	maxFrameLen = 16 << 20

	segmentFormat = "journal-%016x.wal"
)

func segmentName(first uint64) string { return fmt.Sprintf(segmentFormat, first) }

// segmentFirst parses the sequence number out of a segment's file name;
// 0 (never a first sequence number) for any other file.
func segmentFirst(name string) (first uint64) {
	if n, _ := fmt.Sscanf(name, segmentFormat, &first); n != 1 || segmentName(first) != name {
		return 0
	}
	return first
}

// listSegments returns the journal's segments under dir in record
// order, which is name order.
func listSegments(dir string) (paths []string) {
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal")) // the pattern is well-formed
	sort.Strings(segs)
	for _, path := range segs {
		if segmentFirst(filepath.Base(path)) != 0 {
			paths = append(paths, path)
		}
	}
	return paths
}

// damage is why a frame could not be read. torn means the bytes simply
// end early — what a crash mid-write leaves; anything else is
// corruption.
type damage struct {
	torn bool
	msg  string
}

func (d *damage) String() string { return d.msg }

// nextFrame returns the payload of the frame at data[off:], off <
// len(data), as a slice of data, and the offset of the frame after it —
// or the damage that keeps those bytes from being a frame.
func nextFrame(data []byte, off int) (payload []byte, next int, dmg *damage) {
	remain := len(data) - off
	if remain < frameHeaderLen {
		return nil, off, &damage{torn: true, msg: fmt.Sprintf("%d-byte partial frame header at offset %d", remain, off)}
	}
	hdr := data[off : off+frameHeaderLen]
	length := int(binary.LittleEndian.Uint32(hdr[0:4]))
	switch {
	case crc32.Checksum(hdr[:8], crc32c) != binary.LittleEndian.Uint32(hdr[8:12]):
		return nil, off, &damage{msg: fmt.Sprintf("corrupt frame header at offset %d", off)}
	case length > maxFrameLen:
		return nil, off, &damage{msg: fmt.Sprintf("implausible %d-byte frame at offset %d", length, off)}
	case remain-frameHeaderLen < length:
		return nil, off, &damage{torn: true, msg: fmt.Sprintf("frame at offset %d declares %d payload bytes, %d present",
			off, length, remain-frameHeaderLen)}
	}
	next = off + frameHeaderLen + length
	payload = data[off+frameHeaderLen : next]
	if crc32.Checksum(payload, crc32c) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, off, &damage{msg: fmt.Sprintf("corrupt frame payload at offset %d", off)}
	}
	return payload, next, nil
}

// scanSegment decodes the records of one journal file in order, handing
// each to visit. It returns the offset of the first byte it could not
// use, the file's size, and the damage found there (nil for a clean
// file).
func scanSegment(path string, visit func(*Event)) (good, size int, dmg *damage, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: read journal: %w", err)
	}
	for good < len(data) && dmg == nil {
		payload, next, d := nextFrame(data, good)
		if dmg = d; dmg != nil {
			break
		}
		if ev, err := decodeEvent(payload); err != nil {
			dmg = &damage{msg: fmt.Sprintf("undecodable record at offset %d (%v)", good, err)}
		} else {
			visit(&ev)
			good = next
		}
	}
	return good, len(data), dmg, nil
}

// beginFrame reserves a frame header at the end of b; the caller appends
// the payload and seals the frame.
func beginFrame(b []byte) []byte {
	var hdr [frameHeaderLen]byte
	return append(b, hdr[:]...)
}

// sealFrame fills in the header of the frame that starts at b[start]
// and runs to the end of b.
func sealFrame(b []byte, start int) {
	hdr, payload := b[start:start+frameHeaderLen], b[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32c))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(hdr[:8], crc32c))
}

// writeAtomic replaces path with what write produces: a temp file in the
// same directory, fsync, rename — a crash at any point leaves the old
// file or the new one, never a torn one. The caller fsyncs the directory
// (syncDir) once every file of its update is in place.
func writeAtomic(path string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if err = write(tmp); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed file is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
