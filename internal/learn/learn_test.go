package learn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/store"
	"iotsentinel/internal/vulndb"
)

// testService trains a bank over five catalog types; everything else
// in the catalog is an unknown device to it.
func testService(t testing.TB) *iotssp.Service {
	t.Helper()
	types := []string{"Aria", "HueBridge", "EdnetCam", "iKettle2", "WeMoSwitch"}
	full := devices.GenerateDataset(12, 9)
	samples := make(map[core.TypeID][]fingerprint.Fingerprint, len(types))
	for _, id := range types {
		samples[core.TypeID(id)] = full[id]
	}
	id, err := core.Train(samples, core.Config{Seed: 4, Workers: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return iotssp.New(id, vulndb.NewDefault())
}

// uniqueProbes generates captures of one device type until n distinct
// canonical keys are collected (some profiles replay bit-identical
// setup sequences across captures, which the learner dedupes).
func uniqueProbes(t testing.TB, typ string, n int) []fingerprint.Fingerprint {
	t.Helper()
	p, err := devices.ProfileByID(typ)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[fingerprint.Key]struct{})
	var out []fingerprint.Fingerprint
	for seed := int64(1); len(out) < n && seed < 200; seed++ {
		for _, c := range devices.GenerateCaptures(p, 4, seed) {
			fp := fingerprint.FromPackets(c.Packets)
			key := fp.CanonicalKey()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, fp)
			if len(out) == n {
				break
			}
		}
	}
	if len(out) < n {
		t.Fatalf("only %d distinct %s fingerprints found, need %d", len(out), typ, n)
	}
	return out
}

// serviceLearner wires a learner to a service the way the daemons do.
func serviceLearner(t testing.TB, svc *iotssp.Service, cfg Config) *Learner {
	t.Helper()
	cfg.Promote = svc.PromoteType
	cfg.Known = svc.HasType
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

func TestClusterLinkage(t *testing.T) {
	stub := Config{
		Promote: func(core.TypeID, []fingerprint.Fingerprint) (*core.Identifier, error) {
			return nil, errors.New("no promotion in this test")
		},
		Known: func(core.TypeID) bool { return false },
		K:     100, // never propose: this test is about linkage only
	}
	l, err := New(stub)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	gw := uniqueProbes(t, "MAXGateway", 4)
	cam := uniqueProbes(t, "D-LinkCam", 4)
	for _, fp := range gw {
		l.Observe(fp)
	}
	for _, fp := range cam {
		l.Observe(fp)
	}
	l.Observe(gw[0]) // exact replay: deduped, not re-clustered
	l.Wait()

	cs := l.Clusters()
	if len(cs) != 2 {
		t.Fatalf("clusters = %+v, want 2 (one per device type)", cs)
	}
	if cs[0].Members != 4 || cs[1].Members != 4 {
		t.Errorf("cluster sizes = %d/%d, want 4/4", cs[0].Members, cs[1].Members)
	}
	for _, c := range cs {
		if c.Proposed || c.Promoted {
			t.Errorf("cluster %s proposed/promoted below threshold", c.ID)
		}
	}
}

// TestLearnEndToEnd drives the full loop through the service: unknown
// assessments feed the sink, the cluster crosses K, trains in the
// background and hot-swaps — after which the same device type is
// identified and assessed as known.
func TestLearnEndToEnd(t *testing.T) {
	svc := testService(t)
	l := serviceLearner(t, svc, Config{K: 4})
	svc.SetUnknownSink(l.Observe)

	probes := uniqueProbes(t, "MAXGateway", 5)
	for _, fp := range probes[:4] {
		a, err := svc.Assess(fp)
		if err != nil {
			t.Fatal(err)
		}
		if a.Known {
			t.Fatalf("MAXGateway probe unexpectedly known as %q before learning", a.Type)
		}
	}
	l.Wait()

	cs := l.Clusters()
	if len(cs) != 1 || !cs[0].Promoted {
		t.Fatalf("clusters after K observations = %+v, want 1 promoted", cs)
	}
	learned := cs[0].Type
	if !svc.HasType(learned) {
		t.Fatalf("promoted type %q not in the serving bank", learned)
	}
	a, err := svc.Assess(probes[4])
	if err != nil {
		t.Fatal(err)
	}
	if !a.Known || a.Type != learned {
		t.Errorf("post-promotion assessment = %+v, want Known type %q", a, learned)
	}
}

// TestLearnFailedPromotionNeedsFreshEvidence: a cluster whose members
// an existing classifier shadows fails validation, and must not retry
// in a loop on the same members.
func TestLearnFailedPromotionNeedsFreshEvidence(t *testing.T) {
	svc := testService(t)
	attempts := 0
	var mu sync.Mutex
	cfg := Config{
		K: 3,
		Promote: func(typ core.TypeID, fps []fingerprint.Fingerprint) (*core.Identifier, error) {
			mu.Lock()
			attempts++
			mu.Unlock()
			return nil, iotssp.ErrValidationFailed
		},
		Known: svc.HasType,
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	probes := uniqueProbes(t, "MAXGateway", 5)
	for _, fp := range probes[:4] {
		l.Observe(fp)
	}
	l.Wait()
	mu.Lock()
	after4 := attempts
	mu.Unlock()
	if after4 != 2 {
		// K=3 proposes at the 3rd member (fails), then fresh evidence
		// (member 4 > retryAt=4? no: retryAt = 3+1 = 4, so member 4
		// re-proposes and fails again) — exactly 2 attempts, not one
		// per observation.
		t.Errorf("promotion attempts after 4 members = %d, want 2", after4)
	}
	cs := l.Clusters()
	if len(cs) != 1 || cs[0].Proposed || cs[0].Promoted {
		t.Fatalf("clusters = %+v, want 1 unproposed cluster awaiting fresh evidence", cs)
	}
}

// openStore opens a state dir with test logging.
func openStore(t testing.TB, dir string) (*store.Store, *store.Recovery) {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// TestLearnJournalReplay: a half-grown cluster survives a crash (no
// checkpoint — pure journal replay), and the next observation after
// restart completes the proposal.
func TestLearnJournalReplay(t *testing.T) {
	dir := t.TempDir()
	probes := uniqueProbes(t, "MAXGateway", 4)

	st, _ := openStore(t, dir)
	svc := testService(t)
	l := serviceLearner(t, svc, Config{K: 4, Store: st})
	for _, fp := range probes[:3] {
		l.Observe(fp)
	}
	l.Wait()
	l.Close()
	// Crash: no checkpoint, no clean close ordering guarantees beyond
	// the journal batching. Force the journal out.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, dir)
	defer st2.Close()
	svc2 := testService(t)
	l2 := serviceLearner(t, svc2, Config{K: 4, Store: st2})
	stats, err := l2.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clusters != 1 || stats.Members != 3 {
		t.Fatalf("recovery stats = %s, want 1 cluster with 3 members", stats)
	}
	l2.Wait()
	if cs := l2.Clusters(); cs[0].Promoted {
		t.Fatal("cluster promoted below threshold after replay")
	}
	// The 4th member crosses K on the recovered cluster.
	l2.Observe(probes[3])
	l2.Wait()
	cs := l2.Clusters()
	if len(cs) != 1 || !cs[0].Promoted {
		t.Fatalf("clusters = %+v, want the recovered cluster promoted", cs)
	}
	if !svc2.HasType(cs[0].Type) {
		t.Fatalf("promoted type %q not serving after recovery", cs[0].Type)
	}
}

// journaledPromotions counts the type_promoted records a recovery
// replays.
func journaledPromotions(rec *store.Recovery) int {
	n := 0
	for _, ev := range rec.Events {
		if ev.Kind == store.EvTypePromoted {
			n++
		}
	}
	return n
}

// TestPromotionStoreFailureRetrainsAfterRestart: when the promoted bank
// cannot be stored, the promotion is not recorded — not in the journal,
// not in a snapshot — so a restart on the stored bank, which lacks the
// type, trains it again from the journaled proposal and serves it.
func TestPromotionStoreFailureRetrainsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	probes := uniqueProbes(t, "MAXGateway", 4)

	st, _ := openStore(t, dir)
	svc := testService(t)
	l := serviceLearner(t, svc, Config{K: 4, Store: st,
		OnPromoted: func(core.TypeID, *core.Identifier) error { return errors.New("disk full") },
	})
	for _, fp := range probes {
		l.Observe(fp)
	}
	l.Wait()
	cs := l.Clusters()
	if len(cs) != 1 || !cs[0].Promoted || !svc.HasType(cs[0].Type) {
		t.Fatalf("clusters = %+v, want 1 promoted and serving in this process", cs)
	}
	if ls := l.SnapshotState(); !ls.Clusters[0].Proposed || ls.Clusters[0].Promoted {
		t.Fatalf("snapshot records the unstored promotion: %+v", ls.Clusters[0])
	}
	l.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if n := journaledPromotions(rec); n != 0 {
		t.Fatalf("%d type_promoted records for a bank that was never stored", n)
	}
	svc2 := testService(t)
	promotions := 0
	l2 := serviceLearner(t, svc2, Config{K: 4, Store: st2,
		OnPromoted: func(core.TypeID, *core.Identifier) error { promotions++; return nil },
	})
	stats, err := l2.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pending != 1 {
		t.Fatalf("recovery stats = %s, want the proposal pending", stats)
	}
	l2.Wait()
	cs = l2.Clusters()
	if len(cs) != 1 || !cs[0].Promoted || !svc2.HasType(cs[0].Type) || promotions != 1 {
		t.Fatalf("clusters = %+v after %d promotions, want the type trained again and serving", cs, promotions)
	}
}

// TestPromotionCrashBeforeRecordAdoptsStoredType: the promoted bank
// became the stored serving bank, then the process died before the
// promotion record committed. The restart boots that bank, and the
// recovered proposal adopts the type it already serves: no training.
func TestPromotionCrashBeforeRecordAdoptsStoredType(t *testing.T) {
	dir := t.TempDir()
	probes := uniqueProbes(t, "MAXGateway", 4)

	st, _ := openStore(t, dir)
	svc := testService(t)
	l := serviceLearner(t, svc, Config{K: 4, Store: st,
		OnPromoted: func(_ core.TypeID, bank *core.Identifier) error {
			if _, err := st.Models().Save(bank); err != nil {
				return err
			}
			// The crash: nothing the learner appends after this commits.
			return st.Close()
		},
	})
	for _, fp := range probes {
		l.Observe(fp)
	}
	l.Wait()
	l.Close()

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if n := journaledPromotions(rec); n != 0 {
		t.Fatalf("%d type_promoted records survived the crash, want 0", n)
	}
	bank, _, err := st2.Models().Load()
	if err != nil {
		t.Fatal(err)
	}
	svc2 := iotssp.New(bank, vulndb.NewDefault())
	trained := 0
	l2, err := New(Config{K: 4, Store: st2, Known: svc2.HasType,
		Promote: func(t core.TypeID, fps []fingerprint.Fingerprint) (*core.Identifier, error) {
			trained++
			return svc2.PromoteType(t, fps)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Recover(rec); err != nil {
		t.Fatal(err)
	}
	l2.Wait()
	cs := l2.Clusters()
	if len(cs) != 1 || !cs[0].Promoted || !svc2.HasType(cs[0].Type) || trained != 0 {
		t.Fatalf("clusters = %+v after %d trainings, want the stored type adopted untrained", cs, trained)
	}
	l2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, rec3 := openStore(t, dir)
	defer st3.Close()
	if n := journaledPromotions(rec3); n != 1 {
		t.Fatalf("%d type_promoted records after the adoption, want 1", n)
	}
}

// TestLearnSnapshotCheckpoint: cluster state rides in the snapshot and
// survives journal compaction.
func TestLearnSnapshotCheckpoint(t *testing.T) {
	dir := t.TempDir()
	probes := uniqueProbes(t, "MAXGateway", 3)

	st, _ := openStore(t, dir)
	svc := testService(t)
	l := serviceLearner(t, svc, Config{K: 10, Store: st})
	for _, fp := range probes {
		l.Observe(fp)
	}
	l.Wait()
	// Checkpoint retires the journal; the snapshot must carry the
	// clusters (this is what gateway.Checkpoint does via
	// Config.LearnState).
	err := st.Checkpoint(func(w *store.SnapshotWriter) error { return w.Learn(l.SnapshotState()) })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec.Events) != 0 {
		t.Fatalf("journal not compacted: %d events survived checkpoint", len(rec.Events))
	}
	svc2 := testService(t)
	l2 := serviceLearner(t, svc2, Config{K: 10, Store: st2})
	stats, err := l2.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clusters != 1 || stats.Members != 3 {
		t.Fatalf("recovery stats = %s, want 1 cluster with 3 members from the snapshot", stats)
	}
	// Cluster naming must not restart: a new cluster gets a fresh ID.
	other := uniqueProbes(t, "D-LinkCam", 1)
	l2.Observe(other[0])
	l2.Wait()
	cs := l2.Clusters()
	if len(cs) != 2 {
		t.Fatalf("clusters = %+v, want 2", cs)
	}
	if cs[1].ID == cs[0].ID {
		t.Fatalf("cluster ID %q reused after recovery", cs[1].ID)
	}
}

// TestTrainWhileServingRace is the race hammer for the promotion swap:
// assessments keep flowing from many goroutines while clusters cross
// their thresholds, train in the background and hot-swap the bank.
// Run under -race (make verify does).
func TestTrainWhileServingRace(t *testing.T) {
	svc := testService(t)
	l := serviceLearner(t, svc, Config{K: 3})
	svc.SetUnknownSink(l.Observe)

	known := uniqueProbes(t, "HueBridge", 2)
	unknownA := uniqueProbes(t, "MAXGateway", 4)
	unknownB := uniqueProbes(t, "D-LinkCam", 4)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				var fp fingerprint.Fingerprint
				switch (w + i) % 3 {
				case 0:
					fp = known[i%len(known)]
				case 1:
					fp = unknownA[i%len(unknownA)]
				default:
					fp = unknownB[i%len(unknownB)]
				}
				if _, err := svc.Assess(fp); err != nil {
					t.Errorf("Assess: %v", err)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	l.Wait()

	// Both unknown types must have been promoted and must now assess as
	// known — while 8 goroutines were hammering Assess the whole time.
	for _, probe := range []fingerprint.Fingerprint{unknownA[0], unknownB[0]} {
		a, err := svc.Assess(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Known {
			t.Errorf("probe still unknown after the hammer: %+v", a)
		}
	}
	if n := svc.Identifier().NumTypes(); n != 7 {
		t.Errorf("bank has %d types, want 7 (5 trained + 2 learned)", n)
	}
}

// TestLearnQueueOverflowDrops: a full observation queue drops rather
// than blocking the assessment path.
func TestLearnQueueOverflowDrops(t *testing.T) {
	block := make(chan struct{})
	cfg := Config{
		K: 2,
		Promote: func(core.TypeID, []fingerprint.Fingerprint) (*core.Identifier, error) {
			<-block // wedge the background goroutine
			return nil, errors.New("blocked")
		},
		Known: func(core.TypeID) bool { return false },
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); l.Close() }()

	probes := uniqueProbes(t, "MAXGateway", 4)
	// Two observations propose the cluster and wedge the runner in
	// Promote; the rest overrun the queue's queueDepth and must return
	// immediately, queue full or not.
	done := make(chan struct{})
	go func() {
		for i := 0; i < queueDepth+44; i++ {
			l.Observe(probes[i%len(probes)])
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Observe blocked on a wedged learner")
	}
}

func TestNewRequiresCallbacks(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Promote/Known must fail")
	}
}

func TestRecoverOnNonEmptyLearner(t *testing.T) {
	svc := testService(t)
	l := serviceLearner(t, svc, Config{K: 10})
	l.Observe(uniqueProbes(t, "MAXGateway", 1)[0])
	l.Wait()
	if _, err := l.Recover(&store.Recovery{}); err == nil {
		t.Fatal("Recover on a non-empty learner must fail")
	}
	if _, err := l.Recover(nil); err != nil {
		t.Fatalf("Recover(nil) must be a no-op, got %v", err)
	}
}

func TestRecoverStatsString(t *testing.T) {
	s := RecoverStats{Clusters: 2, Members: 7, Replayed: 3, Pending: 1}
	want := "2 clusters (7 members), 3 events replayed, 1 pending"
	if got := fmt.Sprint(s); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
