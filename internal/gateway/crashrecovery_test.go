package gateway

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
)

// The crash fault-injection harness. A reference run journals a mixed
// device population (assessed with permitted IPs, quarantined with a
// parked fingerprint, promoted out of quarantine, removed, and one
// device mid-capture), then the on-disk state is damaged every way a
// crash or bad disk can damage it: the journal truncated at every byte
// offset, every byte corrupted in turn, and the snapshot corrupted.
// For each damaged copy a fresh gateway recovers, and the invariant
// checked is the ISSUE's: recovery either restores the exact pre-crash
// device/quarantine/rule state or degrades to fail-closed strict —
// never fail-open.

// stateFile is one file of a state directory.
type stateFile struct {
	name string
	data []byte
}

// readState reads the files of a state directory that match pattern, in
// name order — for "journal*.wal", the journal in record order.
func readState(t *testing.T, dir, pattern string) []stateFile {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	var files []stateFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, stateFile{filepath.Base(p), data})
	}
	return files
}

// writeState makes files the contents of the state directory dir (the
// sweeps reuse one directory rather than make one per damaged byte).
func writeState(t *testing.T, dir string, files ...stateFile) {
	t.Helper()
	for _, old := range readState(t, dir, "*.*") {
		if err := os.Remove(filepath.Join(dir, old.name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// crashSegments is the state both sweeps damage: the reference run
// journaled across a segment boundary.
func crashSegments(t *testing.T) (ref *crashRef, journal []stateFile) {
	t.Helper()
	dir := t.TempDir()
	abandoned := errors.New("abandoned")
	ref = buildCrashState(t, dir, func(g *Gateway) {
		// A checkpoint that dies before its snapshot is renamed leaves
		// the rotation behind: two segments, no snapshot.
		err := g.cfg.Store.Checkpoint(func(*store.SnapshotWriter) error { return abandoned })
		if !errors.Is(err, abandoned) {
			t.Fatalf("abandoned checkpoint returned %v", err)
		}
	})
	if journal = readState(t, dir, "journal*.wal"); len(journal) != 2 {
		t.Fatalf("reference journal has %d segments, want 2", len(journal))
	}
	return ref, journal
}

// crashRef captures the reference run's final state plus every
// legitimate assessment it ever produced (so a truncation that loses a
// later removal may resurrect a device only in a state the assessor
// actually vouched for).
type crashRef struct {
	svc      *iotssp.Service
	devices  map[packet.MAC]DeviceInfo
	assessed map[packet.MAC]DeviceInfo
	parked   map[packet.MAC]bool
	digest   uint64
	rules    []*sdn.EnforcementRule
	monitor  []packet.MAC // devices still monitoring at the crash
}

func arpPacket(mac packet.MAC) *packet.Packet {
	return packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"),
		netip.MustParseAddr("192.168.1.1"))
}

// buildCrashState runs the reference scenario against a journaling
// gateway rooted at dir and returns the pre-crash ground truth. midway,
// if set, runs in the middle of it — after device E was quarantined,
// before it is promoted.
func buildCrashState(t *testing.T, dir string, midway func(*Gateway)) *crashRef {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.Snapshot != nil || len(rec.Events) != 0 {
		t.Fatal("reference run must start cold")
	}

	ref := &crashRef{
		svc:      trainService(t),
		devices:  make(map[packet.MAC]DeviceInfo),
		assessed: make(map[packet.MAC]DeviceInfo),
		parked:   make(map[packet.MAC]bool),
	}
	flaky := &flakyAssessor{inner: ref.svc}
	g := newGatewayWithAssessor(flaky, Config{
		IdleGap: 5 * time.Second,
		Store:   st,
		OnAssessed: func(d DeviceInfo) {
			ref.assessed[d.MAC] = d
		},
	})

	// Device A: a real EdnetCam onboarding — assessed Restricted with a
	// permitted IP, the most permissive state in the run.
	capA := devices.GenerateCaptures(mustProfile(t, "EdnetCam"), 1, 71)[0]
	playCapture(t, g, capA)
	if err := g.FinishSetup(capA.MAC, capA.Times[len(capA.Times)-1]); err != nil {
		t.Fatal(err)
	}

	// Device E: quarantined by a transient outage, then promoted — the
	// journal holds quarantine + promotion for the same MAC.
	capE := devices.GenerateCaptures(mustProfile(t, "HueBridge"), 1, 72)[0]
	playCapture(t, g, capE)
	flaky.mu.Lock()
	flaky.failures = 1
	flaky.mu.Unlock()
	endE := capE.Times[len(capE.Times)-1]
	if err := g.FinishSetup(capE.MAC, endE); err != nil {
		t.Fatal(err)
	}
	if midway != nil {
		midway(g)
	}
	if n, err := g.RetryQuarantined(endE.Add(10 * time.Second)); n != 1 || err != nil {
		t.Fatalf("promote E: (%d, %v)", n, err)
	}

	// Device D: assessed (unknown → strict) and then removed.
	base := time.Unix(9000, 0)
	macD := packet.MAC{0x02, 0xD, 0xD, 0xD, 0xD, 0xD}
	if _, err := g.HandlePacket(base, arpPacket(macD)); err != nil {
		t.Fatal(err)
	}
	if err := g.FinishSetup(macD, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	g.RemoveDevice(macD)

	// Device B: quarantined with its fingerprint parked, never promoted.
	flaky.mu.Lock()
	flaky.failures = 1000
	flaky.mu.Unlock()
	macB := packet.MAC{0x02, 0xB, 0xB, 0xB, 0xB, 0xB}
	if _, err := g.HandlePacket(base.Add(time.Minute), arpPacket(macB)); err != nil {
		t.Fatal(err)
	}
	if err := g.FinishSetup(macB, base.Add(61*time.Second)); err != nil {
		t.Fatal(err)
	}
	ref.parked[macB] = true

	// Device C: mid-capture at the crash — its packets die with the
	// process.
	macC := packet.MAC{0x02, 0xC, 0xC, 0xC, 0xC, 0xC}
	if _, err := g.HandlePacket(base.Add(2*time.Minute), arpPacket(macC)); err != nil {
		t.Fatal(err)
	}
	ref.monitor = append(ref.monitor, macC)

	for _, d := range g.Devices() {
		ref.devices[d.MAC] = d
	}
	ref.rules = g.Switch().Controller().Rules().Rules()
	ref.digest = g.Switch().Controller().Rules().Digest()
	// Flush: the sweep below reconstructs every possible lost suffix
	// from the full byte stream, so close cleanly first.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return ref
}

func mustProfile(t *testing.T, id string) *devices.Profile {
	t.Helper()
	p, err := devices.ProfileByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recoverInto opens the (possibly damaged) state dir and recovers a
// fresh gateway from it. The gateway is for inspection: the store is
// closed again before it is returned.
func recoverInto(t *testing.T, dir string, ref *crashRef, now time.Time) (*Gateway, *store.Recovery, RecoveryStats) {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("Open after damage: %v", err)
	}
	defer st.Close()
	g := newGatewayWithAssessor(ref.svc, Config{IdleGap: 5 * time.Second})
	stats, err := g.Recover(rec, now)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return g, rec, stats
}

func ipsEqual(a, b []netip.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkNeverFailOpen is the core invariant: every recovered device is
// either in a state the assessor actually vouched for during the
// reference run (with its exact rule re-installed), or isolated at
// strict. No device may recover into an unenforced monitoring state.
func checkNeverFailOpen(t *testing.T, tag string, g *Gateway, ref *crashRef) {
	t.Helper()
	rules := g.Switch().Controller().Rules()
	for _, d := range g.Devices() {
		switch d.State {
		case StateMonitoring:
			t.Fatalf("%s: device %v recovered into monitoring (fail-open: unenforced forwarding)", tag, d.MAC)
		case StateAssessed:
			hist, ok := ref.assessed[d.MAC]
			if !ok {
				t.Fatalf("%s: device %v recovered assessed but was never assessed pre-crash", tag, d.MAC)
			}
			if d.Type != hist.Type || d.Level != hist.Level || !ipsEqual(d.PermittedIPs, hist.PermittedIPs) {
				t.Fatalf("%s: device %v recovered (%v %v %v), assessor vouched (%v %v %v)",
					tag, d.MAC, d.Type, d.Level, d.PermittedIPs, hist.Type, hist.Level, hist.PermittedIPs)
			}
			r, ok := rules.Get(d.MAC)
			if !ok || r.Level != d.Level || !ipsEqual(r.PermittedIPs, d.PermittedIPs) {
				t.Fatalf("%s: device %v state/rule mismatch: rule=%+v ok=%v", tag, d.MAC, r, ok)
			}
		case StateQuarantined:
			if d.Level != sdn.Strict {
				t.Fatalf("%s: quarantined %v at level %v, want strict", tag, d.MAC, d.Level)
			}
			r, ok := rules.Get(d.MAC)
			if !ok || r.Level != sdn.Strict {
				t.Fatalf("%s: quarantined %v rule=%+v ok=%v, want strict", tag, d.MAC, r, ok)
			}
		default:
			t.Fatalf("%s: device %v in impossible state %v", tag, d.MAC, d.State)
		}
	}
}

// expectedDigest is the rule-table digest a *full* recovery must
// produce: the pre-crash table plus strict quarantine rules for the
// devices that were mid-monitoring (their fail-closed demotion).
func expectedDigest(ref *crashRef) uint64 {
	cache := sdn.NewRuleCache()
	for _, r := range ref.rules {
		cache.Put(r)
	}
	ctrl := sdn.NewController(cache, netip.Prefix{})
	for _, mac := range ref.monitor {
		ctrl.Quarantine(mac)
	}
	return cache.Digest()
}

func sameTime(a, b time.Time) bool { return a.Equal(b) }

// checkExactRestore asserts an undamaged recovery reproduces the
// pre-crash state bit-for-bit: every non-monitoring device identical
// field by field, monitoring devices demoted fail-closed, and the rule
// table digest equal to the reconciled pre-crash table.
func checkExactRestore(t *testing.T, g *Gateway, ref *crashRef, recoverNow time.Time) {
	t.Helper()
	got := make(map[packet.MAC]DeviceInfo)
	for _, d := range g.Devices() {
		got[d.MAC] = d
	}
	if len(got) != len(ref.devices) {
		t.Fatalf("recovered %d devices, pre-crash had %d", len(got), len(ref.devices))
	}
	for mac, want := range ref.devices {
		d, ok := got[mac]
		if !ok {
			t.Fatalf("device %v lost by clean recovery", mac)
		}
		if want.State == StateMonitoring {
			if d.State != StateQuarantined || d.Level != sdn.Strict || !sameTime(d.QuarantinedAt, recoverNow) {
				t.Fatalf("monitoring device %v not demoted fail-closed: %+v", mac, d)
			}
			continue
		}
		if d.State != want.State || d.Type != want.Type || d.Level != want.Level ||
			!ipsEqual(d.PermittedIPs, want.PermittedIPs) ||
			d.SetupPackets != want.SetupPackets || d.AssessAttempts != want.AssessAttempts ||
			len(d.Vulnerabilities) != len(want.Vulnerabilities) ||
			!sameTime(d.FirstSeen, want.FirstSeen) || !sameTime(d.AssessedAt, want.AssessedAt) ||
			!sameTime(d.QuarantinedAt, want.QuarantinedAt) {
			t.Fatalf("device %v not restored exactly:\n got %+v\nwant %+v", mac, d, want)
		}
	}
	if got, want := g.Switch().Controller().Rules().Digest(), expectedDigest(ref); got != want {
		t.Fatalf("rule table digest %#x after recovery, want %#x", got, want)
	}
	if g.QuarantineLen() != len(ref.parked) {
		t.Fatalf("retry queue = %d, want %d", g.QuarantineLen(), len(ref.parked))
	}
}

// TestCrashRecoveryExact is the happy path: kill -9 after a clean
// flush, recover, get identical device states, retry queue, and rule
// table (modulo the documented fail-closed demotion of mid-monitoring
// devices).
func TestCrashRecoveryExact(t *testing.T) {
	dir := t.TempDir()
	ref := buildCrashState(t, dir, nil)
	recoverNow := time.Unix(20000, 0)
	g, rec, stats := recoverInto(t, dir, ref, recoverNow)
	if rec.Degraded {
		t.Fatalf("clean journal flagged degraded: %v", rec.Warnings)
	}
	if stats.Demoted != len(ref.monitor) {
		t.Errorf("demoted %d, want %d (mid-monitoring devices)", stats.Demoted, len(ref.monitor))
	}
	checkNeverFailOpen(t, "exact", g, ref)
	checkExactRestore(t, g, ref, recoverNow)
}

// TestCrashRecoveryTruncationSweep truncates the journal at every byte
// offset — every possible torn write a crash can leave, in either
// segment — and requires each recovery to be clean (not degraded) and
// never fail-open, and the untruncated one to restore the run exactly.
func TestCrashRecoveryTruncationSweep(t *testing.T) {
	recoverNow := time.Unix(20000, 0)
	ref, journal := crashSegments(t)
	t.Run("segments", func(t *testing.T) {
		dir := t.TempDir()
		for k, torn := range journal {
			newest := k == len(journal)-1
			for cut := 0; cut < len(torn.data) || (newest && cut == len(torn.data)); cut++ {
				// The segments after a torn one did not exist yet.
				files := append([]stateFile{}, journal[:k]...)
				writeState(t, dir, append(files, stateFile{torn.name, torn.data[:cut]})...)
				g, rec, _ := recoverInto(t, dir, ref, recoverNow)
				if rec.Degraded {
					t.Fatalf("%s cut=%d: pure truncation must recover clean, got degraded: %v", torn.name, cut, rec.Warnings)
				}
				checkNeverFailOpen(t, "cut", g, ref)
				if newest && cut == len(torn.data) {
					checkExactRestore(t, g, ref, recoverNow)
				}
			}
		}
	})
}

// TestCrashRecoveryCorruptionSweep flips every journal byte in turn —
// bad sectors, bit rot — and requires every recovery to degrade to
// fail-closed: the boot succeeds, but no recovered device keeps
// network access on trust.
func TestCrashRecoveryCorruptionSweep(t *testing.T) {
	recoverNow := time.Unix(20000, 0)
	ref, journal := crashSegments(t)
	t.Run("segments", func(t *testing.T) {
		dir := t.TempDir()
		for k, f := range journal {
			for pos := range f.data {
				files := append([]stateFile{}, journal...)
				mut := append([]byte(nil), f.data...)
				mut[pos] ^= 0xff
				files[k].data = mut
				writeState(t, dir, files...)
				g, rec, _ := recoverInto(t, dir, ref, recoverNow)
				if !rec.Degraded {
					t.Fatalf("%s pos=%d: corruption not flagged degraded", f.name, pos)
				}
				checkNeverFailOpen(t, "flip", g, ref)
				// Degraded recovery: nothing recovered may be assessed.
				for _, d := range g.Devices() {
					if d.State != StateQuarantined || d.Level != sdn.Strict {
						t.Fatalf("%s pos=%d: degraded recovery left %v at %v/%v", f.name, pos, d.MAC, d.State, d.Level)
					}
				}
			}
		}
	})
}

// TestCrashRecoveryWithSnapshot checkpoints mid-run, appends more
// events, and sweeps journal truncation with the snapshot present: the
// snapshot floor must always survive, post-snapshot events replay per
// prefix, and a corrupted snapshot degrades to fail-closed without
// losing the journal suffix.
func TestCrashRecoveryWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	ref := buildCrashState(t, dir, nil)

	// Reopen and checkpoint the recovered state, then add one more
	// quarantined device so the journal has a post-snapshot suffix.
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyAssessor{failures: 1000, inner: ref.svc}
	g := newGatewayWithAssessor(flaky, Config{IdleGap: 5 * time.Second, Store: st})
	recoverNow := time.Unix(20000, 0)
	if _, err := g.Recover(rec, recoverNow); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	macF := packet.MAC{0x02, 0xF, 0xF, 0xF, 0xF, 0xF}
	base := time.Unix(21000, 0)
	if _, err := g.HandlePacket(base, arpPacket(macF)); err != nil {
		t.Fatal(err)
	}
	if err := g.FinishSetup(macF, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	ref.parked[macF] = true
	for _, d := range g.Devices() {
		ref.devices[d.MAC] = d
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := readState(t, dir, "snapshot.bin")[0]
	journal := readState(t, dir, "journal*.wal")
	if len(journal) != 1 {
		t.Fatalf("%d journal segments after a checkpoint, want 1", len(journal))
	}
	jBytes := journal[0].data

	// Journal truncation sweep with the snapshot intact. The snapshot
	// devices must survive every cut.
	tdir := t.TempDir()
	for cut := 0; cut <= len(jBytes); cut++ {
		writeState(t, tdir, snapshot, stateFile{journal[0].name, jBytes[:cut]})
		g2, rec2, _ := recoverInto(t, tdir, ref, recoverNow)
		if rec2.Degraded {
			t.Fatalf("cut=%d: truncation with intact snapshot degraded: %v", cut, rec2.Warnings)
		}
		if rec2.Snapshot == nil {
			t.Fatalf("cut=%d: snapshot lost", cut)
		}
		checkNeverFailOpen(t, "snap-cut", g2, ref)
		// Snapshot floor: every pre-checkpoint device is present.
		for mac, want := range ref.devices {
			if mac == macF {
				continue // post-snapshot, may be lost by the cut
			}
			if _, ok := g2.Device(mac); !ok {
				t.Fatalf("cut=%d: snapshot device %v lost", cut, mac)
			}
			_ = want
		}
	}

	// Corrupt the snapshot: recovery must degrade (fail-closed) but
	// still boot and still replay the journal suffix.
	mutSnap := append([]byte(nil), snapshot.data...)
	mutSnap[len(mutSnap)/2] ^= 0xff
	writeState(t, tdir, stateFile{snapshot.name, mutSnap}, journal[0])
	g3, rec3, _ := recoverInto(t, tdir, ref, recoverNow)
	if !rec3.Degraded {
		t.Fatal("corrupt snapshot must degrade recovery")
	}
	checkNeverFailOpen(t, "snap-corrupt", g3, ref)
	if _, ok := g3.Device(macF); !ok {
		t.Fatal("journal suffix lost with corrupt snapshot")
	}
}

// TestRestartResumesQuarantineDrain is the end-to-end restart flow of
// the ISSUE: a device is quarantined because the remote security
// service is down, the gateway dies, and after a reboot the resumed
// RetryWorker — running against the Recover()-ed gateway with a fresh
// circuit breaker on a fake clock — drains the recovered retry queue
// and promotes the device, no re-capture needed.
func TestRestartResumesQuarantineDrain(t *testing.T) {
	svc := trainService(t)
	real := iotssp.Handler(svc)
	var failing atomic.Bool
	failing.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "service down", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	newClient := func(fc *fakeClock) *iotssp.Client {
		return &iotssp.Client{
			BaseURL: srv.URL,
			Timeout: 5 * time.Second,
			Retry:   iotssp.RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, Seed: 7},
			Breaker: iotssp.NewCircuitBreaker(2, 30*time.Second, fc),
			Clock:   fc,
		}
	}

	dir := t.TempDir()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Events) != 0 {
		t.Fatal("must start cold")
	}
	fc1 := &fakeClock{now: time.Unix(5000, 0)}
	g1 := newGatewayWithAssessor(newClient(fc1), Config{IdleGap: 5 * time.Second, Store: st})

	cap := devices.GenerateCaptures(mustProfile(t, "EdnetCam"), 1, 73)[0]
	playCapture(t, g1, cap)
	end := cap.Times[len(cap.Times)-1]
	if err := g1.FinishSetup(cap.MAC, end); err != nil {
		t.Fatal(err)
	}
	info, _ := g1.Device(cap.MAC)
	if info.State != StateQuarantined {
		t.Fatalf("pre-crash state = %v, want quarantined", info.State)
	}
	if err := st.Close(); err != nil { // flush; the quarantine itself was fsynced
		t.Fatal(err)
	}
	// Crash: g1 and its breaker state are simply gone.

	// Reboot. The service has recovered; the new process has a fresh
	// breaker and a recovered retry queue.
	failing.Store(false)
	st2, rec2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	fc2 := &fakeClock{now: time.Unix(6000, 0)}
	g2 := newGatewayWithAssessor(newClient(fc2), Config{IdleGap: 5 * time.Second, Store: st2})
	stats, err := g2.Recover(rec2, time.Unix(6000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 || stats.Retryable != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	info, _ = g2.Device(cap.MAC)
	if info.State != StateQuarantined || info.Level != sdn.Strict {
		t.Fatalf("recovered state: %+v", info)
	}

	// The resumed workers drain the recovered queue.
	rw := NewRetryWorker(g2, 5*time.Millisecond)
	ew := NewExpiryWorker(g2, 5*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if info, _ := g2.Device(cap.MAC); info.State == StateAssessed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	promoted := rw.Shutdown()
	ew.Shutdown()
	if promoted < 1 {
		t.Fatalf("resumed RetryWorker promoted %d devices, want >= 1", promoted)
	}
	info, _ = g2.Device(cap.MAC)
	if info.State != StateAssessed || info.Type != "EdnetCam" || info.Level != sdn.Restricted {
		t.Fatalf("after restart drain: %+v", info)
	}
	rule, ok := g2.Switch().Controller().Rules().Get(cap.MAC)
	if !ok || rule.Level != sdn.Restricted || len(rule.PermittedIPs) != 1 {
		t.Fatalf("promoted rule after restart: %+v ok=%v", rule, ok)
	}

	// The promotion was journaled: one more restart recovers the device
	// directly in its assessed state.
	if err := g2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, rec3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if rec3.Snapshot == nil {
		t.Fatal("checkpoint produced no snapshot")
	}
	g3 := newGatewayWithAssessor(svc, Config{IdleGap: 5 * time.Second, Store: st3})
	if _, err := g3.Recover(rec3, time.Unix(7000, 0)); err != nil {
		t.Fatal(err)
	}
	info, _ = g3.Device(cap.MAC)
	if info.State != StateAssessed || info.Type != "EdnetCam" {
		t.Fatalf("third boot: %+v", info)
	}
	if g3.QuarantineLen() != 0 {
		t.Fatalf("retry queue = %d after promotion persisted", g3.QuarantineLen())
	}
}

// TestRecoverRejectsUnpackableJournaledRows: journal and snapshot carry
// packed words, and store.Open refuses a record holding one the
// extractor cannot have produced; Recover is handed a *store.Recovery,
// so it checks again (fingerprint.FromF). A quarantine record with such
// a word keeps the device quarantined fail-closed but not retryable,
// rather than parking some other fingerprint in its name.
func TestRecoverRejectsUnpackableJournaledRows(t *testing.T) {
	fp := devices.GenerateDataset(1, 5)["EdnetCam"][0]
	good := fp.F
	if back, err := fingerprint.FromF(good); err != nil || back.CanonicalKey() != fp.CanonicalKey() {
		t.Fatalf("a journaled F does not round-trip: %v", err)
	}
	bad := append(fingerprint.F(nil), fp.F...)
	bad[1] |= 1 << 63 // the reserved bit
	if _, err := fingerprint.FromF(bad); err == nil || !strings.Contains(err.Error(), "not a packed feature symbol") {
		t.Fatalf("FromF(reserved-bit word) = %v, want an error naming the word", err)
	}

	at := time.Unix(7000, 0)
	macGood, macBadEvent, macBadSnap := packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}, packet.MAC{2, 0, 0, 0, 0, 3}
	rec := &store.Recovery{
		Snapshot: &store.Snapshot{
			Devices:    []store.DeviceRecord{{MAC: macBadSnap, State: StateQuarantined.String(), Level: int(sdn.Strict), FirstSeen: at}},
			Quarantine: []store.QuarantineRecord{{MAC: macBadSnap, Since: at, Fingerprint: bad}},
		},
		Events: []store.Event{
			{Kind: store.EvQuarantined, MAC: macGood, At: at, FirstSeen: at, Attempts: 1, Fingerprint: good},
			{Kind: store.EvQuarantined, MAC: macBadEvent, At: at, FirstSeen: at, Attempts: 1, Fingerprint: bad},
		},
	}
	g := newGateway(t, Config{})
	stats, err := g.Recover(rec, at.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 3 || stats.Retryable != 1 {
		t.Fatalf("recovery stats %+v: want 3 quarantined, only the well-formed one retryable", stats)
	}
	for _, mac := range []packet.MAC{macGood, macBadEvent, macBadSnap} {
		if info, ok := g.Device(mac); !ok || info.State != StateQuarantined || info.Level != sdn.Strict {
			t.Errorf("device %v after recovery: %+v (present %v), want strict quarantine", mac, info, ok)
		}
	}
}
