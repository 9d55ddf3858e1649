package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/vulndb"
)

// Binary payloads. Every frame's payload — a journal record, a snapshot
// row — starts with a version byte and is a fixed sequence of
// little-endian fields (the frame header's byte order):
//
//	ints     i32           strings  u16 length + bytes
//	times    i64 Unix ns   lists    u16 count + elements
//	         (zeroTime for the zero time.Time)
//	address  u8 0|4|16, that many bytes, and for 16 a zone string
//	F        fingerprint.AppendF (big-endian, the fleet wire's layout)
//
// A journal record is its kindCodes byte, then every other Event field
// in declaration order. A snapshot row follows the version with a
// row-kind byte.
const (
	codecVersion = 1
	zeroTime     = math.MinInt64
)

// Snapshot row kinds.
const (
	rowHeader     = iota + 1 // u64 seq
	rowDevice                // DeviceRecord
	rowQuarantine            // QuarantineRecord
	rowLearn                 // i32 nextCluster; cluster rows follow
	rowCluster               // str id, str type, bool proposed, bool promoted; its member rows follow
	rowMember                // F
	rowTrailer               // u64 count of the rows before it
)

var (
	errFieldRange = errors.New("store: field exceeds its binary width")
	errShort      = errors.New("payload truncated")
)

// codec moves fields between values and their binary form in the
// direction it was set up for, so each layout below is written once and
// encoder and decoder cannot drift apart. Encoding appends to b and only
// reads the values (a snapshot encodes slices the live gateway shares);
// a field that does not fit its width sets err. Decoding consumes b; the
// first short or malformed field sets err, after which every field reads
// as zero, and a count is checked against the bytes left before
// anything is allocated.
type codec struct {
	b      []byte
	decode bool
	err    error
	zero   [16]byte
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// fixed is the next n ≤ 16 payload bytes: appended and returned for the
// caller to fill when encoding, consumed (zeros once the payload has run
// out) when decoding.
func (c *codec) fixed(n int) []byte {
	if !c.decode {
		c.b = append(c.b, c.zero[:n]...)
		return c.b[len(c.b)-n:]
	}
	if c.err != nil || len(c.b) < n {
		c.fail(errShort)
		return c.zero[:n]
	}
	s := c.b[:n]
	c.b = c.b[n:]
	return s
}

func (c *codec) u8(v *uint8) {
	if s := c.fixed(1); c.decode {
		*v = s[0]
	} else {
		s[0] = *v
	}
}

func (c *codec) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if c.u8(&b); c.decode {
		*v = b != 0
	}
}

func (c *codec) u64(v *uint64) {
	if s := c.fixed(8); c.decode {
		*v = binary.LittleEndian.Uint64(s)
	} else {
		binary.LittleEndian.PutUint64(s, *v)
	}
}

func (c *codec) i32(v *int) {
	if s := c.fixed(4); c.decode {
		*v = int(int32(binary.LittleEndian.Uint32(s)))
	} else if binary.LittleEndian.PutUint32(s, uint32(int32(*v))); int(int32(*v)) != *v {
		c.fail(errFieldRange)
	}
}

// count is a list length or string size n. Each element takes at least
// min bytes: a decoded count the remaining payload cannot hold fails.
func (c *codec) count(n, min int) int {
	if s := c.fixed(2); !c.decode {
		if binary.LittleEndian.PutUint16(s, uint16(n)); n > math.MaxUint16 {
			c.fail(errFieldRange)
		}
	} else if n = int(binary.LittleEndian.Uint16(s)); n*min > len(c.b) {
		c.fail(errShort)
		n = 0
	}
	return n
}

func (c *codec) str(v *string) {
	if n := c.count(len(*v), 1); c.decode {
		*v = string(c.b[:n])
		c.b = c.b[n:]
	} else {
		c.b = append(c.b, *v...)
	}
}

func (c *codec) time(v *time.Time) {
	ns := uint64(v.UnixNano())
	if v.IsZero() {
		ns = 1 << 63 // zeroTime
	}
	if c.u64(&ns); !c.decode {
		return
	}
	if *v = time.Unix(0, int64(ns)).UTC(); int64(ns) == zeroTime {
		*v = time.Time{}
	}
}

func (c *codec) mac(v *packet.MAC) {
	if s := c.fixed(len(v)); c.decode {
		copy(v[:], s)
	} else {
		copy(s, v[:])
	}
}

func (c *codec) f(v *fingerprint.F) {
	switch {
	case !c.decode:
		b, err := fingerprint.AppendF(c.b, *v)
		if c.b = b; err != nil {
			c.fail(err)
		}
	case c.err == nil:
		*v, c.b, c.err = fingerprint.DecodeF(c.b)
	}
}

func (c *codec) ips(v *[]netip.Addr) {
	if n := c.count(len(*v), 1); c.decode && n > 0 {
		*v = make([]netip.Addr, n)
	}
	for i := range *v {
		ip := &(*v)[i]
		size, a, zone := uint8(ip.BitLen()/8), ip.As16(), ip.Zone()
		switch c.u8(&size); size {
		case 0:
		case 4:
			if s := c.fixed(4); c.decode {
				*ip = netip.AddrFrom4([4]byte(s))
			} else {
				copy(s, a[12:])
			}
		case 16:
			if s := c.fixed(16); c.decode {
				copy(a[:], s)
			} else {
				copy(s, a[:])
			}
			if c.str(&zone); c.decode {
				*ip = netip.AddrFrom16(a).WithZone(zone)
			}
		default:
			c.fail(fmt.Errorf("address of %d bytes", size))
		}
	}
}

func (c *codec) vulns(v *[]vulndb.Record) {
	// An element is at least three empty strings, a severity and a flag.
	if n := c.count(len(*v), 11); c.decode && n > 0 {
		*v = make([]vulndb.Record, n)
	}
	for i := range *v {
		r, severity := &(*v)[i], int((*v)[i].Severity)
		c.str(&r.ID)
		c.str(&r.DeviceType)
		c.i32(&severity)
		c.str(&r.Summary)
		if c.bool(&r.FixedInUpdate); c.decode {
			r.Severity = vulndb.Severity(severity)
		}
	}
}

// event is a journal record after its version byte.
func (c *codec) event(ev *Event) {
	code := uint8(max(slices.Index(kindCodes[:], ev.Kind), 0)) // "" is at 0
	if c.u8(&code); code == 0 || int(code) >= len(kindCodes) {
		c.fail(fmt.Errorf("store: unknown event kind %q (code %d)", ev.Kind, code))
		return
	}
	ev.Kind = kindCodes[code]
	c.u64(&ev.Seq)
	c.mac(&ev.MAC)
	c.time(&ev.At)
	c.time(&ev.FirstSeen)
	c.str(&ev.Type)
	c.i32(&ev.Level)
	c.ips(&ev.PermittedIPs)
	c.vulns(&ev.Vulns)
	c.i32(&ev.SetupPackets)
	c.i32(&ev.Attempts)
	c.f(&ev.Fingerprint)
	c.str(&ev.Cluster)
	c.i32(&ev.Members)
	c.str(&ev.Model)
	c.str(&ev.BaselineModel)
	if n := c.count(len(ev.Canaries), 2); c.decode && n > 0 {
		ev.Canaries = make([]string, n)
	}
	for i := range ev.Canaries {
		c.str(&ev.Canaries[i])
	}
}

// device is a rowDevice after its two leading bytes.
func (c *codec) device(r *DeviceRecord) {
	c.mac(&r.MAC)
	c.str(&r.State)
	c.str(&r.Type)
	c.i32(&r.Level)
	c.ips(&r.PermittedIPs)
	c.vulns(&r.Vulnerabilities)
	c.time(&r.FirstSeen)
	c.time(&r.AssessedAt)
	c.time(&r.QuarantinedAt)
	c.i32(&r.SetupPackets)
	c.i32(&r.AssessAttempts)
}

// quarantine is a rowQuarantine after its two leading bytes.
func (c *codec) quarantine(q *QuarantineRecord) {
	c.mac(&q.MAC)
	c.time(&q.Since)
	c.f(&q.Fingerprint)
}

// end reports a decode's first failure, or bytes left over.
func (c *codec) end() error {
	if c.err == nil && len(c.b) != 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.b))
	}
	return c.err
}

// appendEvent appends ev's record to b.
func appendEvent(b []byte, ev *Event) ([]byte, error) {
	c := codec{b: append(b, codecVersion)}
	c.event(ev)
	return c.b, c.err
}

// decodeEvent parses a record appendEvent wrote.
func decodeEvent(payload []byte) (ev Event, err error) {
	if len(payload) == 0 || payload[0] != codecVersion {
		return Event{}, errors.New("unknown record version")
	}
	c := codec{b: payload[1:], decode: true}
	c.event(&ev)
	return ev, c.end()
}
