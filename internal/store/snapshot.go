package store

import (
	"bufio"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/vulndb"
)

// DeviceRecord is one device's durable state inside a snapshot.
type DeviceRecord struct {
	MAC   packet.MAC
	State string // monitoring | assessed | quarantined
	Type  string
	Level int

	PermittedIPs    []netip.Addr
	Vulnerabilities []vulndb.Record

	FirstSeen     time.Time
	AssessedAt    time.Time
	QuarantinedAt time.Time

	SetupPackets   int
	AssessAttempts int
}

// QuarantineRecord is one parked fingerprint awaiting retry.
type QuarantineRecord struct {
	MAC         packet.MAC
	Since       time.Time
	Fingerprint fingerprint.F
}

// ClusterRecord is one unknown-fingerprint cluster inside a snapshot:
// its stable name, full membership (F; F′ re-derives), and how far
// through the propose→promote lifecycle it got. Members must be
// complete — a checkpoint retires the journal segments that held the
// per-member records, so the snapshot is the only copy.
type ClusterRecord struct {
	ID       string
	Type     string
	Proposed bool
	Promoted bool
	Members  []fingerprint.F
}

// LearnState is the online-learning subsystem's durable state.
type LearnState struct {
	// NextCluster seeds cluster naming so IDs never repeat across
	// restarts.
	NextCluster int
	Clusters    []ClusterRecord
}

// Snapshot is a point-in-time capture of the gateway's durable state as
// Open read it back. It covers every journal record with Seq ≤ Seq.
type Snapshot struct {
	Seq uint64

	Devices    []DeviceRecord
	Quarantine []QuarantineRecord

	// Learn, when non-nil, carries the online-learning cluster state.
	Learn *LearnState
}

// snapshotBuffer is the snapshot writer's one buffer: rows stream
// through it to the temp file, so a checkpoint's memory does not grow
// with the number of devices.
const snapshotBuffer = 64 << 10

// SnapshotWriter streams a snapshot's rows into its file, each a frame
// of its own (journal.go) around a binary row (codec.go): a header row
// with the sequence number, the caller's rows in any order, and a
// trailer counting them. A reader accepts the file only if every frame
// checks out and the trailer's count matches, so a snapshot cut short
// anywhere is unreadable rather than partial. Store.Checkpoint owns its
// lifetime.
type SnapshotWriter struct {
	w    *bufio.Writer
	c    codec // of the frame being built; its buffer is reused
	rows uint64
}

// row starts a row of the given kind in the writer's frame buffer.
func (w *SnapshotWriter) row(kind uint8) *codec {
	w.c = codec{b: append(beginFrame(w.c.b[:0]), codecVersion, kind)}
	return &w.c
}

// put seals and writes the row c holds.
func (w *SnapshotWriter) put(c *codec) error {
	if c.err != nil {
		return c.err
	}
	sealFrame(c.b, 0)
	w.rows++
	_, err := w.w.Write(c.b)
	return err
}

// Device adds one device.
func (w *SnapshotWriter) Device(d *DeviceRecord) error {
	c := w.row(rowDevice)
	c.device(d)
	return w.put(c)
}

// Quarantine adds one parked fingerprint.
func (w *SnapshotWriter) Quarantine(q *QuarantineRecord) error {
	c := w.row(rowQuarantine)
	c.quarantine(q)
	return w.put(c)
}

// Learn adds the online learner's state: one row for the naming
// counter, one per cluster, one per member fingerprint.
func (w *SnapshotWriter) Learn(ls *LearnState) error {
	c := w.row(rowLearn)
	c.i32(&ls.NextCluster)
	err := w.put(c)
	for i := 0; i < len(ls.Clusters) && err == nil; i++ {
		cl := &ls.Clusters[i]
		c = w.row(rowCluster)
		c.cluster(cl)
		err = w.put(c)
		for m := 0; m < len(cl.Members) && err == nil; m++ {
			c = w.row(rowMember)
			c.f(&cl.Members[m])
			err = w.put(c)
		}
	}
	return err
}

// cluster is a rowCluster after its two leading bytes.
func (c *codec) cluster(cl *ClusterRecord) {
	c.str(&cl.ID)
	c.str(&cl.Type)
	c.bool(&cl.Proposed)
	c.bool(&cl.Promoted)
}

// writeSnapshot persists a snapshot atomically (writeAtomic): a crash at
// any point leaves either the old or the new snapshot, never a torn one.
func writeSnapshot(path string, seq uint64, fill func(*SnapshotWriter) error) error {
	err := writeAtomic(path, func(f *os.File) error {
		w := &SnapshotWriter{w: bufio.NewWriterSize(f, snapshotBuffer)}
		c := w.row(rowHeader)
		c.u64(&seq)
		err := w.put(c)
		if err == nil {
			err = fill(w)
		}
		if err == nil {
			c = w.row(rowTrailer)
			c.u64(&w.rows)
			err = w.put(c)
		}
		if err == nil {
			err = w.w.Flush()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// loadSnapshot reads and verifies a snapshot. os.IsNotExist(err) marks
// a cold start; any other error means the file exists but cannot be
// trusted (a frame that fails its CRC, truncation, a missing or
// miscounting trailer, version skew).
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{}
	for row, off := uint64(0), 0; off < len(data); row++ {
		payload, next, dmg := nextFrame(data, off)
		if dmg != nil {
			return nil, errors.New(dmg.msg)
		}
		off = next
		last, err := snap.addRow(payload, row)
		switch {
		case err != nil:
			return nil, fmt.Errorf("row %d: %w", row, err)
		case last && off == len(data):
			return snap, nil
		case last:
			return nil, errors.New("bytes after the trailer")
		}
	}
	return nil, errors.New("ends before its trailer")
}

// addRow decodes the row-th row (the header is row 0) into snap and
// reports whether it was the trailer.
func (snap *Snapshot) addRow(payload []byte, row uint64) (last bool, err error) {
	if len(payload) < 2 || payload[0] != codecVersion {
		return false, errors.New("unknown row version")
	}
	c := codec{b: payload[2:], decode: true}
	switch kind := payload[1]; {
	case (kind == rowHeader) != (row == 0):
		return false, errors.New("header row out of place")
	case kind == rowHeader:
		c.u64(&snap.Seq)
	case kind == rowDevice:
		snap.Devices = append(snap.Devices, DeviceRecord{})
		c.device(&snap.Devices[len(snap.Devices)-1])
	case kind == rowQuarantine:
		snap.Quarantine = append(snap.Quarantine, QuarantineRecord{})
		c.quarantine(&snap.Quarantine[len(snap.Quarantine)-1])
	case kind == rowLearn:
		snap.Learn = &LearnState{}
		c.i32(&snap.Learn.NextCluster)
	case kind == rowCluster && snap.Learn != nil:
		snap.Learn.Clusters = append(snap.Learn.Clusters, ClusterRecord{})
		c.cluster(&snap.Learn.Clusters[len(snap.Learn.Clusters)-1])
	case kind == rowMember && snap.Learn != nil && len(snap.Learn.Clusters) > 0:
		cl := &snap.Learn.Clusters[len(snap.Learn.Clusters)-1]
		cl.Members = append(cl.Members, nil)
		c.f(&cl.Members[len(cl.Members)-1])
	case kind == rowTrailer:
		var n uint64
		if c.u64(&n); n != row {
			c.fail(fmt.Errorf("trailer counts %d rows, file holds %d", n, row))
		}
		last = true
	default:
		return false, fmt.Errorf("unexpected row kind %d", kind)
	}
	return last, c.end()
}
