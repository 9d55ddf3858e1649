package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
)

func mac(b byte) packet.MAC { return packet.MAC{0x02, 0, 0, 0, 0, b} }

func openT(t *testing.T, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func appendT(t *testing.T, s *Store, ev Event) uint64 {
	t.Helper()
	seq, err := s.Append(ev)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return seq
}

// checkpointT snapshots the given devices.
func checkpointT(t *testing.T, s *Store, devices ...DeviceRecord) {
	t.Helper()
	err := s.Checkpoint(func(w *SnapshotWriter) error {
		for i := range devices {
			if err := w.Device(&devices[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
}

// rotateT moves appends to a new journal segment without a snapshot —
// the files a kill -9 in the middle of a checkpoint leaves behind.
func rotateT(t *testing.T, s *Store) {
	t.Helper()
	abandoned := errors.New("abandoned")
	if err := s.Checkpoint(func(*SnapshotWriter) error { return abandoned }); !errors.Is(err, abandoned) {
		t.Fatalf("abandoned checkpoint returned %v", err)
	}
}

// stateFile is one file of a state directory.
type stateFile struct {
	name string
	data []byte
}

// journalFiles reads a state directory's journal in record order.
func journalFiles(t *testing.T, dir string) []stateFile {
	t.Helper()
	var files []stateFile
	for _, p := range listSegments(dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, stateFile{filepath.Base(p), data})
	}
	return files
}

// writeState makes files the contents of the state directory dir, and
// returns dir. (The sweeps reuse one directory: making a fresh one per
// damaged byte is most of their run time.)
func writeState(t *testing.T, dir string, files ...stateFile) string {
	t.Helper()
	old, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range old {
		if !e.IsDir() {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// framePayloadLen reads the payload length of the frame data starts
// with.
func framePayloadLen(data []byte) int { return int(binary.LittleEndian.Uint32(data)) }

// framesWithin counts the complete frames in data[:cut].
func framesWithin(data []byte, cut int) int {
	n := 0
	for off := 0; off+frameHeaderLen <= len(data); n++ {
		off += frameHeaderLen + framePayloadLen(data[off:])
		if off > cut {
			break
		}
	}
	return n
}

// twoSegments journals five events across a segment boundary and
// returns the closed state directory.
func twoSegments(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	fp := fingerprint.F{features.Packed(7), features.Packed(9)}
	for i := 0; i < 5; i++ {
		if i == 3 {
			rotateT(t, s)
		}
		appendT(t, s, Event{Kind: EvQuarantined, MAC: mac(byte(i)), Type: "T", Level: 1, Fingerprint: fp})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if files := journalFiles(t, dir); len(files) != 2 {
		t.Fatalf("journal has %d segments, want 2", len(files))
	}
	return dir
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Events) != 0 || rec.Degraded {
		t.Fatalf("cold start should be empty and clean, got %+v", rec)
	}
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	appendT(t, s, Event{Kind: EvCaptureStarted, MAC: mac(1), At: at, FirstSeen: at})
	appendT(t, s, Event{Kind: EvAssessed, MAC: mac(1), At: at.Add(time.Second),
		Type: "DLinkCam", Level: 3, SetupPackets: 17, FirstSeen: at})
	appendT(t, s, Event{Kind: EvQuarantined, MAC: mac(2), At: at.Add(2 * time.Second),
		Attempts: 1, Fingerprint: fingerprint.F{}})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := openT(t, dir, Options{})
	defer s2.Close()
	if rec2.Degraded {
		t.Fatalf("clean journal flagged degraded: %v", rec2.Warnings)
	}
	if len(rec2.Events) != 3 {
		t.Fatalf("replayed %d events, want 3", len(rec2.Events))
	}
	for i, ev := range rec2.Events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	e1 := rec2.Events[1]
	if e1.Kind != EvAssessed || e1.MAC != mac(1) || e1.Type != "DLinkCam" || e1.Level != 3 || e1.SetupPackets != 17 {
		t.Errorf("assessed event did not round-trip: %+v", e1)
	}
	if !e1.At.Equal(at.Add(time.Second)) || !e1.FirstSeen.Equal(at) {
		t.Errorf("timestamps did not round-trip: %+v", e1)
	}
	if got := s2.Seq(); got != 3 {
		t.Errorf("Seq() = %d, want 3", got)
	}
}

// TestJournalTornTail truncates the journal at every byte offset, across
// its segment boundary, and checks recovery keeps exactly the complete
// frames, never flags the truncation as degraded, and never fails the
// boot.
func TestJournalTornTail(t *testing.T) {
	journal := journalFiles(t, twoSegments(t))
	t.Run("segments", func(t *testing.T) {
		dir := t.TempDir()
		before := 0 // records in the segments older than the torn one
		for k, torn := range journal {
			for cut := 0; cut < len(torn.data); cut++ {
				// A crash tears the newest segment only: the ones
				// after it did not exist yet.
				files := append([]stateFile{}, journal[:k]...)
				writeState(t, dir, append(files, stateFile{torn.name, torn.data[:cut]})...)
				want := before + framesWithin(torn.data, cut)

				s2, rec := openT(t, dir, Options{})
				if rec.Degraded {
					t.Fatalf("%s cut=%d: pure truncation flagged degraded: %v", torn.name, cut, rec.Warnings)
				}
				if len(rec.Events) != want {
					t.Fatalf("%s cut=%d: recovered %d events, want %d", torn.name, cut, len(rec.Events), want)
				}
				// The journal must be appendable after a torn-tail truncation.
				seq := appendT(t, s2, Event{Kind: EvRemoved, MAC: mac(9)})
				if wantSeq := uint64(want) + 1; seq != wantSeq {
					t.Fatalf("%s cut=%d: post-recovery seq %d, want %d", torn.name, cut, seq, wantSeq)
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
				s3, rec3 := openT(t, dir, Options{})
				if len(rec3.Events) != want+1 || rec3.Degraded {
					t.Fatalf("%s cut=%d: reopen got %d events degraded=%v", torn.name, cut, len(rec3.Events), rec3.Degraded)
				}
				s3.Close()
			}
			before += framesWithin(torn.data, len(torn.data))
		}
	})
}

// TestJournalCorruption flips every byte of the journal in turn: recovery
// must keep the frames before the damage, flag the pass degraded, and
// keep booting. The header CRC covers the length and the payload CRC the
// payload, so no flip can pass for a torn tail.
func TestJournalCorruption(t *testing.T) {
	journal := journalFiles(t, twoSegments(t))
	t.Run("segments", func(t *testing.T) {
		dir, total := t.TempDir(), 0
		for _, f := range journal {
			total += framesWithin(f.data, len(f.data))
		}
		for k, f := range journal {
			for pos := range f.data {
				files := append([]stateFile{}, journal...)
				mut := append([]byte(nil), f.data...)
				mut[pos] ^= 0xff
				files[k].data = mut
				s2, rec := openT(t, writeState(t, dir, files...), Options{})
				if !rec.Degraded {
					t.Fatalf("%s pos=%d: corruption not flagged degraded (got %d events, warnings %v)",
						f.name, pos, len(rec.Events), rec.Warnings)
				}
				if len(rec.Events) >= total {
					t.Fatalf("%s pos=%d: corrupt journal replayed all %d events", f.name, pos, len(rec.Events))
				}
				s2.Close()
			}
		}
	})
}

// TestCheckpointCompactsJournal: a checkpoint rotates the journal at the
// snapshot's sequence number and unlinks what the snapshot covers; a
// record appended while the snapshot is being written lands in the new
// segment and survives.
func TestCheckpointCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		appendT(t, s, Event{Kind: EvAssessed, MAC: mac(byte(i)), Type: "T", Level: 1})
	}
	err := s.Checkpoint(func(w *SnapshotWriter) error {
		appendT(t, s, Event{Kind: EvQuarantined, MAC: mac(200)})
		return w.Device(&DeviceRecord{MAC: mac(1), State: "assessed"})
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	appendT(t, s, Event{Kind: EvRemoved, MAC: mac(3)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if files := journalFiles(t, dir); len(files) != 1 || files[0].name != segmentName(11) {
		t.Fatalf("journal after checkpoint: %d files, first %q; want the one segment from record 11", len(files), files[0].name)
	}

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 10 || len(rec.Snapshot.Devices) != 1 {
		t.Fatalf("snapshot not recovered: %+v", rec.Snapshot)
	}
	if len(rec.Events) != 2 {
		t.Fatalf("recovered %d post-snapshot events, want 2 (quarantine + removal)", len(rec.Events))
	}
	if rec.Events[0].Kind != EvQuarantined || rec.Events[1].Kind != EvRemoved {
		t.Fatalf("wrong surviving events: %+v", rec.Events)
	}
	if got := s2.Seq(); got != 12 {
		t.Errorf("seq not preserved across the checkpoint: %d, want 12", got)
	}
}

// TestCorruptSegmentIsNeverRewritten: a record damaged on disk while the
// gateway runs used to be dropped — with every record after it — by the
// checkpoint that rewrote the journal, and the next boot was clean. A
// rotated-out segment is now never read back: the damage is still there
// at the next Open, which comes back degraded with the records around
// it.
func TestCorruptSegmentIsNeverRewritten(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Event{Kind: EvAssessed, MAC: mac(1), Type: "T", Level: 3})
	appendT(t, s, Event{Kind: EvAssessed, MAC: mac(2), Type: "T", Level: 3})
	appendT(t, s, Event{Kind: EvQuarantined, MAC: mac(1)})

	// Bit rot in the second record, ahead of the demotion.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	second := frameHeaderLen + framePayloadLen(data)
	data[second+frameHeaderLen+4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A checkpoint whose snapshot does not cover the segment (it was
	// abandoned): the parent's compaction rewrote the journal here.
	rotateT(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if !rec.Degraded {
		t.Fatalf("damaged segment recovered clean: %d events, warnings %v", len(rec.Events), rec.Warnings)
	}
	if len(rec.Events) != 1 || rec.Events[0].MAC != mac(1) {
		t.Fatalf("events before the damage lost: %+v", rec.Events)
	}
}

// TestSnapshotCorruptionDegrades damages a snapshot every way — each
// byte flipped, the file cut at each length — for a snapshot of several
// rows: recovery must flag degraded, return no snapshot, and still replay
// the journal.
func TestSnapshotCorruptionDegrades(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	appendT(t, s, Event{Kind: EvAssessed, MAC: mac(1), Type: "T", Level: 3})
	err := s.Checkpoint(func(w *SnapshotWriter) error {
		w.Device(&DeviceRecord{MAC: mac(1), State: "assessed", Level: 3})
		w.Quarantine(&QuarantineRecord{MAC: mac(4), Fingerprint: fingerprint.F{1, 2, 3}})
		return w.Learn(&LearnState{NextCluster: 2, Clusters: []ClusterRecord{{ID: "c-0001", Members: []fingerprint.F{{5, 6}}}}})
	})
	if err != nil {
		t.Fatal(err)
	}
	appendT(t, s, Event{Kind: EvQuarantined, MAC: mac(2)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	binarySnap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}

	journal := journalFiles(t, dir)
	t.Run("rows", func(t *testing.T) {
		dir := t.TempDir()
		check := func(what string, damaged []byte) {
			t.Helper()
			files := append([]stateFile{{snapshotName, damaged}}, journal...)
			s2, rec := openT(t, writeState(t, dir, files...), Options{})
			defer s2.Close()
			if !rec.Degraded || rec.Snapshot != nil {
				t.Fatalf("%s: damaged snapshot accepted (degraded=%v snapshot=%v)", what, rec.Degraded, rec.Snapshot != nil)
			}
			if len(rec.Events) != 1 {
				t.Fatalf("%s: journal replayed %d events beside the damaged snapshot, want 1", what, len(rec.Events))
			}
		}
		for pos := range binarySnap {
			mut := append([]byte(nil), binarySnap...)
			mut[pos] ^= 0xff
			check("flip", mut)
		}
		// Cut at 0 is an empty file, not a missing one.
		for cut := 0; cut < len(binarySnap); cut++ {
			check("cut", binarySnap[:cut])
		}
		// What a release before the binary format wrote — one intact
		// frame of JSON — is damage too: no release reads it any more.
		jsonSnap := append(beginFrame(nil), `{"version":1,"seq":4,"devices":[]}`...)
		sealFrame(jsonSnap, 0)
		check("JSON snapshot", jsonSnap)
	})
}

// TestAppendWhileCommitting hammers the group commit: routine and
// durable appenders, Sync and Checkpoint run together (under -race in
// make verify), every durable Append returns only once its record is on
// disk, and a reopen finds every record exactly once, in order.
func TestAppendWhileCommitting(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	const writers, each = 4, 200
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				// Durable appends are sparse enough that the routine ones
				// between them pass DefaultSyncEvery and commit on their own.
				kind := EvAssessed
				if i%50 == 0 {
					kind = EvRemoved
				}
				seq, err := s.Append(Event{Kind: kind, MAC: mac(byte(w))})
				if err == nil && kind == EvRemoved {
					s.mu.Lock()
					if s.durable < seq {
						err = errors.New("durable Append returned before its record was committed")
					}
					s.mu.Unlock()
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for running := writers; running > 0; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running--
		default:
			checkpointT(t, s)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Event{Kind: EvAssessed}); err == nil {
		t.Error("Append after Close succeeded")
	}
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	next := uint64(1)
	if rec.Snapshot != nil {
		next = rec.Snapshot.Seq + 1
	}
	for _, ev := range rec.Events {
		if ev.Seq != next {
			t.Fatalf("recovered record %d where %d was due", ev.Seq, next)
		}
		next++
	}
	if next != writers*each+1 || rec.Degraded {
		t.Fatalf("recovered up to record %d of %d (degraded=%v)", next-1, writers*each, rec.Degraded)
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Metrics: m})
	appendT(t, s, Event{Kind: EvAssessed, MAC: mac(1)})
	appendT(t, s, Event{Kind: EvQuarantined, MAC: mac(2)})
	checkpointT(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Value("store_journal_appends_total", "durability", "batched"); got != 1 {
		t.Errorf("batched appends = %v, want 1", got)
	}
	if got := snap.Value("store_journal_appends_total", "durability", "fsync"); got != 1 {
		t.Errorf("fsync appends = %v, want 1", got)
	}
	if got := snap.Value("store_snapshots_total"); got != 1 {
		t.Errorf("snapshots = %v, want 1", got)
	}
	if got := snap.Value("store_recoveries_total", "outcome", "clean"); got != 1 {
		t.Errorf("clean recoveries = %v, want 1", got)
	}
}

// TestStoreCountsGroupCommits appends N durable records at once: each
// Append returns only once a commit covered it, and the committer may
// cover several with one, so 1 to N commits ran.
func TestStoreCountsGroupCommits(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := openT(t, t.TempDir(), Options{Metrics: NewMetrics(reg)})
	defer s.Close()
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Append(Event{Kind: EvQuarantined, MAC: mac(byte(i))})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Value("store_journal_appends_total", "durability", "fsync"); got != n {
		t.Fatalf("fsync appends = %v, want %d", got, n)
	}
	if got := snap.Value("store_journal_commits_total"); got < 1 || got > n {
		t.Errorf("commits = %v for %d durable appends, want 1 to %d", got, n, n)
	} else {
		t.Logf("%d durable appends, %v commits", n, got)
	}
}
