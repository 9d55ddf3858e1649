// Package store is the durability layer of the Security Gateway: a
// CRC32C-framed append-only journal of device-lifecycle events kept in
// segments, atomic state snapshots that retire the segments they cover,
// and a content-addressed model store for classifier banks. Together
// they make `gatewayd` restart-safe — a crash or redeploy no longer
// forgets identified devices, their isolation levels, or the quarantine
// queue, and a warm boot loads the model bank from disk instead of
// retraining.
//
// Durability contract, in order of importance:
//
//   - Recovery never fails the boot. A torn tail record (the normal
//     shape of a crash mid-append) is truncated with a warning. A
//     corrupt record anywhere else flips recovery into degraded mode:
//     what can still be read is replayed, and the caller is told to
//     fail closed for everything it recovered (the gateway demotes all
//     recovered devices to strict quarantine rather than trust a
//     journal that may have hidden a demotion).
//   - An append is first enqueued — numbered and placed in the journal's
//     order, without touching the disk — then durable, once the
//     committer has written and fsynced it. Security demotions
//     (quarantine, removal) are waited for and acknowledged only when
//     durable; routine events are committed in groups of
//     DefaultSyncEvery, so a crash can lose recent promotions — which recover
//     as something stricter — but never an acknowledged demotion.
//   - Snapshots and model files are written temp → fsync → rename, so
//     a crash mid-checkpoint leaves the previous snapshot intact, and
//     no append waits for either.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	// DefaultSyncEvery batches fsyncs for routine (non-durable) appends:
	// the committer writes and fsyncs the journal once this many are
	// enqueued, for any durable append, and on Close/Checkpoint.
	DefaultSyncEvery = 64

	snapshotName = "snapshot.bin"
	modelsDir    = "models"
)

// Options wires a Store to its instrumentation.
type Options struct {
	// Metrics, if set, receives journal/snapshot/recovery
	// instrumentation.
	Metrics *Metrics
	// Logf, if set, receives recovery warnings (torn tails, corrupt
	// records, unreadable snapshots). nil discards them.
	Logf func(format string, args ...any)
}

// Recovery is what Open found on disk: the latest snapshot (nil when
// none), the journal events recorded after it, and the damage report.
type Recovery struct {
	// Snapshot is the most recent durable snapshot, nil if none exists
	// or it was unreadable.
	Snapshot *Snapshot
	// Events are the journal records with Seq greater than the
	// snapshot's, in append order; a damaged segment contributes the
	// records before its damage.
	Events []Event
	// Degraded reports that recovered state cannot be fully trusted: a
	// record failed its CRC away from the torn-tail position, or the
	// snapshot existed but was unreadable. Callers must fail closed for
	// everything they rebuild from this recovery.
	Degraded bool
	// TornBytes is the size of the damaged tail truncated from the
	// newest segment (0 for a clean journal).
	TornBytes int64
	// Warnings narrates the damage for the operator.
	Warnings []string
}

// Store ties the journal, snapshots, and the model store to one state
// directory.
type Store struct {
	dir  string
	opts Options

	// mu is the append lock: it guards the journal's in-memory tail and
	// the commit bookkeeping, and is never held across a system call —
	// an append, made inside a gateway shard's critical section, waits
	// for no disk.
	mu      sync.Mutex
	buf     []byte // framed records not yet handed to the disk
	spare   []byte // the buffer the last commit wrote out
	seq     uint64 // last sequence number assigned
	durable uint64 // every record up to here is fsynced
	want    uint64 // highest sequence number somebody waits on
	pending int    // routine records enqueued since the last commit
	err     error  // the commit that failed; every later call returns it
	closed  bool
	work    *sync.Cond // wakes the committer
	synced  *sync.Cond // wakes WaitDurable: durable moved, or err set
	done    chan struct{}

	// fmu guards the journal's files and is held across their writes and
	// fsyncs — by the committer, a rotation, Sync and Close, never by an
	// append. Lock order: fmu → mu.
	fmu     sync.Mutex
	active  *os.File // the segment commits write to
	first   uint64   // the first sequence number it may hold
	retired []string // older segments, until a snapshot covers them

	snapMu sync.Mutex // one Checkpoint at a time

	// commitHook is nil outside tests: a commit calls it with the tail
	// taken and not yet written, the point where a crash loses records.
	commitHook func()
}

var errClosed = errors.New("store: closed")

// Open prepares the state directory and replays whatever it holds: the
// snapshot plus every journal segment in order, tolerating damage (warn,
// degrade — recovery never fails the boot on damaged records). The
// returned Recovery is the caller's rebuild input; the store is ready
// for appends.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	if err := os.MkdirAll(filepath.Join(dir, modelsDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, done: make(chan struct{})}
	s.work, s.synced = sync.NewCond(&s.mu), sync.NewCond(&s.mu)
	rec := &Recovery{}

	snap, err := loadSnapshot(filepath.Join(dir, snapshotName))
	switch {
	case err == nil:
		rec.Snapshot = snap
		s.seq = snap.Seq
	case os.IsNotExist(err):
		// Cold start.
	default:
		// The snapshot exists but cannot be trusted. Journal events
		// still replay, but devices that lived only in the snapshot are
		// gone — and gone devices fail closed (no rule ⇒ strict).
		rec.Degraded = true
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("snapshot unreadable, recovering from journal alone: %v", err))
	}

	paths := listSegments(dir)
	snapSeq := s.seq
	for i, path := range paths {
		good, size, dmg, err := scanSegment(path, func(ev *Event) {
			s.seq = max(s.seq, ev.Seq)
			if ev.Seq > snapSeq {
				rec.Events = append(rec.Events, *ev)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		name, newest := filepath.Base(path), i == len(paths)-1
		if dmg != nil && newest {
			// Cut the tail off so that appends continue from sound bytes.
			if err := os.Truncate(path, int64(good)); err != nil {
				return nil, nil, fmt.Errorf("store: truncate journal tail: %w", err)
			}
			rec.TornBytes = int64(size - good)
		}
		switch {
		case dmg == nil:
		case newest && dmg.torn:
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("torn tail in %s: %s, truncated", name, dmg))
		default:
			rec.Degraded = true
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("%s in %s, the records after it are lost (fail-closed recovery)", dmg, name))
		}
		if first := segmentFirst(name); newest && first != 0 {
			// The newest segment stays the active one. Its name says
			// which numbers were handed out before it, whatever of the
			// older segments is left to show for them.
			s.first, s.seq = first, max(s.seq, first-1)
		} else {
			s.retired = append(s.retired, path)
		}
	}
	fresh := s.first == 0 // nothing to continue: the journal's first segment
	if fresh {
		s.first = s.seq + 1
	}
	s.active, err = os.OpenFile(filepath.Join(dir, segmentName(s.first)), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open journal: %w", err)
	}
	if fresh {
		if err := syncDir(dir); err != nil {
			_ = s.active.Close()
			return nil, nil, err
		}
	}
	s.durable = s.seq
	go s.commitLoop()

	opts.Metrics.recovered(len(rec.Events), rec.TornBytes, rec.Degraded)
	for _, w := range rec.Warnings {
		s.logf("store: recovery: %s", w)
	}
	return s, rec, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Seq returns the sequence number of the last appended record.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Append journals one event: Enqueue and, for a durable event
// (quarantine, removal — see Event.durable), WaitDurable.
func (s *Store) Append(ev Event) (uint64, error) {
	seq, err := s.Enqueue(ev)
	if err == nil && ev.durable() {
		err = s.WaitDurable(seq)
	}
	return seq, err
}

// Enqueue assigns ev the next sequence number and encodes it into the
// journal's in-memory tail: its place in the journal's order is fixed,
// and nothing has touched the disk. A caller keeps journal order equal
// to the order of its own state changes by enqueueing inside its
// critical section, and calls WaitDurable after leaving it for an event
// that must survive a crash before it is acted on. The committer is
// woken for a durable event, and once DefaultSyncEvery routine ones are
// pending.
func (s *Store) Enqueue(ev Event) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.err != nil:
		return 0, s.err
	case s.closed:
		return 0, errClosed
	}
	ev.Seq = s.seq + 1
	start := len(s.buf)
	b, err := appendEvent(beginFrame(s.buf), &ev)
	if err != nil {
		return 0, err
	}
	sealFrame(b, start)
	s.buf, s.seq = b, ev.Seq
	durable := ev.durable()
	if durable {
		s.want = ev.Seq
	} else {
		s.pending++
	}
	if durable || s.pending >= DefaultSyncEvery {
		s.work.Signal()
	}
	s.opts.Metrics.appended(len(b)-start-frameHeaderLen, durable)
	return ev.Seq, nil
}

// WaitDurable blocks until the record Enqueue numbered seq is fsynced —
// by the committer, or by the commit Close ends with.
func (s *Store) WaitDurable(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.seq {
		return fmt.Errorf("store: wait for record %d, last enqueued is %d", seq, s.seq)
	}
	if seq > s.want {
		s.want = seq
		s.work.Signal()
	}
	for s.durable < seq && s.err == nil {
		s.synced.Wait()
	}
	return s.err
}

// commitLoop is the committer: the one goroutine that writes and fsyncs
// on behalf of appenders (group commit — whatever is enqueued when it
// runs goes out in one write and one fsync). It exits at Close, or at
// the first failed commit.
func (s *Store) commitLoop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for !s.closed && s.err == nil && s.want <= s.durable && s.pending < DefaultSyncEvery {
			s.work.Wait()
		}
		stop := s.closed || s.err != nil
		s.mu.Unlock()
		if stop {
			return
		}
		_ = s.Sync() // a failure is kept in s.err for the callers it concerns
	}
}

// Sync writes and fsyncs every record enqueued so far.
func (s *Store) Sync() error {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	_, err := s.commit()
	return err
}

// commit writes the in-memory tail to the active segment, fsyncs it and
// publishes the new durable mark; it returns the last sequence number
// the segment now holds. The buffers swap under mu; the write and the
// fsync run outside it. The caller holds fmu.
func (s *Store) commit() (uint64, error) {
	s.mu.Lock()
	buf, upTo, err := s.buf, s.seq, s.err
	s.buf, s.pending = s.spare[:0], 0
	s.mu.Unlock()
	if s.commitHook != nil {
		s.commitHook()
	}
	if err == nil && len(buf) > 0 {
		if _, err = s.active.Write(buf); err == nil {
			err = s.active.Sync()
		}
		if err != nil {
			err = fmt.Errorf("store: commit journal: %w", err)
		} else {
			s.opts.Metrics.committed()
		}
	}
	s.mu.Lock()
	s.spare = buf[:0]
	if err == nil {
		s.durable = upTo
	}
	s.err = err
	s.synced.Broadcast()
	s.mu.Unlock()
	return upTo, err
}

// Checkpoint writes a snapshot and retires the journal it covers,
// without stopping appends. The journal first rotates: everything
// enqueued so far is committed to the active segment and a new segment
// takes what follows; the sequence number at that boundary is the
// snapshot's. Then fill streams the caller's state through w into a
// temp file, with no store lock held — the boundary was fixed before
// fill collects anything, so records of transitions that race it land
// in the new segment and replay idempotently on top of the snapshot.
// Once the snapshot is renamed into place and durable, every segment
// before the boundary is unlinked whole.
func (s *Store) Checkpoint(fill func(w *SnapshotWriter) error) error {
	start := time.Now()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	seq, err := s.rotate()
	if err != nil {
		return err
	}
	if err := writeSnapshot(filepath.Join(s.dir, snapshotName), seq, fill); err != nil {
		return err
	}
	s.fmu.Lock()
	for _, path := range s.retired {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			s.logf("store: checkpoint: %v", err) // covered by the snapshot either way
		}
	}
	s.retired = nil
	s.fmu.Unlock()
	s.opts.Metrics.snapshotted(time.Since(start))
	return nil
}

// rotate commits the journal and switches appends to a new segment,
// returning the last sequence number of the old one. An active segment
// that holds nothing yet is kept.
func (s *Store) rotate() (uint64, error) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	seq, err := s.commit()
	if err != nil || seq+1 == s.first {
		return seq, err
	}
	next, err := os.OpenFile(filepath.Join(s.dir, segmentName(seq+1)), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		// The directory entry must be durable before a record in the
		// new segment is reported durable.
		if err = syncDir(s.dir); err != nil {
			_ = next.Close()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("store: rotate journal: %w", err)
	}
	s.retired = append(s.retired, s.active.Name())
	_ = s.active.Close() // fsynced by the commit above
	s.active, s.first = next, seq+1
	return seq, nil
}

// Models returns the model store rooted in the state directory.
func (s *Store) Models() *ModelStore {
	return &ModelStore{dir: filepath.Join(s.dir, modelsDir), m: s.opts.Metrics}
}

// Close commits what is enqueued, stops the committer and closes the
// journal. The store must not be used afterwards; a second Close is a
// no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.work.Signal()
	s.mu.Unlock()
	<-s.done
	s.fmu.Lock()
	defer s.fmu.Unlock()
	_, err := s.commit()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	return err
}
