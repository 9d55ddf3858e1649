// Package pcap implements the classic libpcap capture file format
// (https://wiki.wireshark.org/Development/LibpcapFileFormat) from scratch:
// a 24-byte global header followed by per-record headers and raw frames.
// Both big- and little-endian files are read; files are written in the
// host-independent little-endian form with microsecond timestamps.
//
// The Security Gateway's capture module stores device setup traffic in
// this format, standing in for the paper's tcpdump-based capture rig.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

const (
	magicMicros     = 0xa1b2c3d4
	magicMicrosSwap = 0xd4c3b2a1

	// LinkTypeEthernet is the DLT_EN10MB link type.
	LinkTypeEthernet = 1

	globalHeaderLen = 24
	recordHeaderLen = 16

	// MaxSnapLen bounds per-record capture length to reject corrupt files.
	MaxSnapLen = 1 << 18
)

// ErrBadMagic reports a file that does not start with a pcap magic number.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Record is one captured frame with its capture timestamp.
type Record struct {
	Time time.Time
	Data []byte
	// OrigLen is the original frame length on the wire; equal to
	// len(Data) unless the capture was truncated by the snap length.
	OrigLen int
}

// Writer emits pcap records to an underlying stream.
type Writer struct {
	w       io.Writer
	snapLen uint32
	started bool
}

// NewWriter returns a Writer targeting w. The global header is written
// lazily on the first record (or by Flush on an empty capture).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snapLen: 65535}
}

func (w *Writer) writeHeader() error {
	if w.started {
		return nil
	}
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	binary.LittleEndian.PutUint32(hdr[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write global header: %w", err)
	}
	w.started = true
	return nil
}

// WriteRecord appends one captured frame.
func (w *Writer) WriteRecord(rec Record) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	if len(rec.Data) == 0 {
		return fmt.Errorf("pcap: zero-length record")
	}
	if len(rec.Data) > int(w.snapLen) {
		return fmt.Errorf("pcap: record of %d bytes exceeds snap length %d", len(rec.Data), w.snapLen)
	}
	origLen := rec.OrigLen
	if origLen < len(rec.Data) {
		origLen = len(rec.Data)
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(rec.Time.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(rec.Time.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(rec.Data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(rec.Data); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	return nil
}

// Flush ensures the global header exists even for empty captures.
func (w *Writer) Flush() error { return w.writeHeader() }

// Reader parses pcap records from an underlying stream.
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	snapLen uint32
}

// NewReader parses the global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read global header: %w", err)
	}
	var order binary.ByteOrder
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicMicros:
		order = binary.LittleEndian
	case magicMicrosSwap:
		order = binary.BigEndian
	default:
		return nil, ErrBadMagic
	}
	rd := &Reader{
		r:       r,
		order:   order,
		snapLen: order.Uint32(hdr[16:20]),
	}
	if rd.snapLen == 0 || rd.snapLen > MaxSnapLen {
		return nil, fmt.Errorf("pcap: implausible snap length %d", rd.snapLen)
	}
	return rd, nil
}

// ReadRecord returns the next record, or io.EOF at end of file.
func (r *Reader) ReadRecord() (Record, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	sec := r.order.Uint32(hdr[0:4])
	usec := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen == 0 {
		return Record{}, fmt.Errorf("pcap: zero-length record")
	}
	if capLen > r.snapLen {
		return Record{}, fmt.Errorf("pcap: record length %d exceeds snap length %d", capLen, r.snapLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcap: read record data: %w", err)
	}
	return Record{
		Time:    time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data:    data,
		OrigLen: int(origLen),
	}, nil
}

// ReadAll drains the stream and returns every record.
func ReadAll(r io.Reader) ([]Record, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := rd.ReadRecord()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// WriteAll writes every record to w in order.
func WriteAll(w io.Writer, recs []Record) error {
	pw := NewWriter(w)
	for i, rec := range recs {
		if err := pw.WriteRecord(rec); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return pw.Flush()
}
