package fleet

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"iotsentinel/internal/store"
)

// testController builds a controller over a journaled store in dir and
// a registry with the given gateways pre-registered (no connections:
// pushes fail best-effort, which the controller tolerates; the state
// machine is what these tests exercise).
func testController(t *testing.T, dir string, gateways ...string) (*Controller, *Registry, *store.Store, *store.Recovery) {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	reg := NewRegistry(time.Hour, nil)
	now := time.Now()
	for _, id := range gateways {
		reg.register(id, nil, now)
	}
	ctrl, err := NewController(ControllerConfig{
		Registry: reg,
		Policy:   Policy{CanaryFraction: 0.25, MinSamples: 20, MaxUnknownDelta: 0.05},
		Store:    st,
		Models:   st.Models(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return ctrl, reg, st, rec
}

// journalKinds reopens dir's journal and returns the rollout event
// kinds in append order.
func journalKinds(t *testing.T, dir string) []store.EventKind {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open (replay): %v", err)
	}
	defer st.Close()
	var kinds []store.EventKind
	for _, ev := range rec.Events {
		switch ev.Kind {
		case store.EvRolloutStarted, store.EvRolloutPromoted, store.EvRolloutRolledBack:
			kinds = append(kinds, ev.Kind)
		}
	}
	return kinds
}

func TestRolloutPromotesWhenCanaryHolds(t *testing.T) {
	dir := t.TempDir()
	ctrl, reg, st, _ := testController(t, dir, "g1", "g2", "g3", "g4")

	shaA, err := ctrl.SetCurrent([]byte("bank-A"))
	if err != nil {
		t.Fatalf("SetCurrent: %v", err)
	}
	for _, id := range reg.IDs() {
		reg.setCounters(id, 100, 5) // 5% fleet unknown-rate before the rollout
	}

	shaB, err := ctrl.StartRollout([]byte("bank-B"))
	if err != nil {
		t.Fatalf("StartRollout: %v", err)
	}
	st.Sync()
	status := ctrl.Status()
	if status.Phase != PhaseCanarying || status.Candidate != shaB || status.Current != shaA {
		t.Fatalf("mid-rollout status = %+v", status)
	}
	// ceil(0.25 * 4) = 1 canary, and IDs() is sorted, so g1.
	if len(status.Canaries) != 1 || status.Canaries["g1"] {
		t.Fatalf("canaries = %v, want g1 un-acked", status.Canaries)
	}

	// A second rollout while one is in flight is rejected.
	if _, err := ctrl.StartRollout([]byte("bank-C")); !errors.Is(err, ErrRolloutInFlight) {
		t.Fatalf("concurrent StartRollout err = %v, want ErrRolloutInFlight", err)
	}

	// The canary acks the candidate; its judgment window starts at the
	// counters it had then.
	ctrl.OnModelAck("g1", shaB, true, "", nil)
	if !ctrl.Status().Canaries["g1"] {
		t.Fatal("canary not marked applied after ack")
	}

	// Below MinSamples: no judgment yet.
	reg.setCounters("g1", 110, 5)
	ctrl.OnCounters("g1")
	if got := ctrl.Status().Phase; got != PhaseCanarying {
		t.Fatalf("phase after %d samples = %v, want canarying", 10, got)
	}

	// 30 assessments under the candidate, 1 unknown (3.3%): within
	// MaxUnknownDelta of the 5% pre-rollout baseline — promote.
	reg.setCounters("g1", 130, 6)
	ctrl.OnCounters("g1")
	status = ctrl.Status()
	if status.Phase != PhaseIdle || status.Current != shaB {
		t.Fatalf("post-promotion status = %+v", status)
	}

	want := []store.EventKind{store.EvRolloutStarted, store.EvRolloutPromoted}
	if got := journalKinds(t, dir); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("journal kinds = %v, want %v", got, want)
	}
}

func TestRolloutRollsBackOnRegression(t *testing.T) {
	dir := t.TempDir()
	ctrl, reg, _, _ := testController(t, dir, "g1", "g2", "g3", "g4")

	shaA, _ := ctrl.SetCurrent([]byte("bank-A"))
	for _, id := range reg.IDs() {
		reg.setCounters(id, 100, 5)
	}
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	ctrl.OnModelAck("g1", shaB, true, "", nil)

	// 25 assessments, 20 unknown: an 80% unknown-rate regression.
	reg.setCounters("g1", 125, 25)
	ctrl.OnCounters("g1")

	status := ctrl.Status()
	if status.Phase != PhaseIdle || status.Current != shaA {
		t.Fatalf("post-rollback status = %+v (want current %.12s)", status, shaA)
	}
	want := []store.EventKind{store.EvRolloutStarted, store.EvRolloutRolledBack}
	if got := journalKinds(t, dir); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("journal kinds = %v, want %v", got, want)
	}
}

// TestRolloutWindowStartsAtTheAckedBase: a canary's flush path and its
// reader write independently, so counters that already include
// assessments made under the candidate can reach the service before the
// ack does. The ack says where the canary stood when it applied the
// bank, and the window starts there — not at whatever the registry holds
// when the ack arrives, which would hide those assessments from the
// judgment for good.
func TestRolloutWindowStartsAtTheAckedBase(t *testing.T) {
	ctrl, reg, _, _ := testController(t, t.TempDir(), "g1", "g2", "g3", "g4")
	shaA, _ := ctrl.SetCurrent([]byte("bank-A"))
	for _, id := range reg.IDs() {
		reg.setCounters(id, 100, 5)
	}
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))

	// 25 assessments under the candidate, none known, overtake the ack.
	reg.setCounters("g1", 125, 30)
	ctrl.OnCounters("g1")
	if got := ctrl.Status().Phase; got != PhaseCanarying {
		t.Fatalf("phase before the ack = %v, want canarying", got)
	}
	ctrl.OnModelAck("g1", shaB, true, "", &counterPair{Assessed: 100, Unknown: 5})
	if status := ctrl.Status(); status.Phase != PhaseIdle || status.Current != shaA {
		t.Fatalf("status = %+v, want the regression judged at the ack and rolled back to %.12s", status, shaA)
	}
}

// TestRolloutAckedBaseAheadOfTheRegistry is the opposite and usual
// order: the canary assessed devices under the old bank since its last
// counters frame, so its acked base is ahead of the registry. That gap
// is not a restarted gateway, and what fills it is not evidence about
// the candidate.
func TestRolloutAckedBaseAheadOfTheRegistry(t *testing.T) {
	ctrl, reg, _, _ := testController(t, t.TempDir(), "g1", "g2", "g3", "g4")
	ctrl.SetCurrent([]byte("bank-A"))
	for _, id := range reg.IDs() {
		reg.setCounters(id, 100, 5)
	}
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	ctrl.OnModelAck("g1", shaB, true, "", &counterPair{Assessed: 140, Unknown: 5})
	for _, c := range [][2]uint64{
		{120, 5}, // read before the base, written after the ack: stale
		{150, 5}, // 10 under the candidate: below MinSamples
	} {
		reg.setCounters("g1", c[0], c[1])
		ctrl.OnCounters("g1")
		if got := ctrl.Status().Phase; got != PhaseCanarying {
			t.Fatalf("phase after counters %v = %v, want canarying: nothing under the candidate is judged yet", c, got)
		}
	}
	reg.setCounters("g1", 165, 6) // 25 under the candidate, 1 unknown
	ctrl.OnCounters("g1")
	if status := ctrl.Status(); status.Phase != PhaseIdle || status.Current != shaB {
		t.Fatalf("status = %+v, want %.12s promoted on the 25 assessments past the base", status, shaB)
	}
}

// TestRolloutRestartedCanaryIsNotJudgedOnTheOldRow: a canary whose
// process restarts mid-rollout re-registers with counters at zero, so it
// has nothing to send before it acks the candidate with base (0,0), while
// the registry keeps the previous process's row for the whole lease. That
// row is assessments made under the old bank; the window must start from
// the new process's zero and wait for evidence under the candidate.
func TestRolloutRestartedCanaryIsNotJudgedOnTheOldRow(t *testing.T) {
	ctrl, reg, _, _ := testController(t, t.TempDir(), "g1", "g2", "g3", "g4")
	shaA, _ := ctrl.SetCurrent([]byte("bank-A"))
	for _, id := range reg.IDs() {
		reg.setCounters(id, 100, 5)
	}
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))

	reg.register("g1", nil, time.Now())
	ctrl.OnModelAck("g1", shaB, true, "", &counterPair{})
	if got := ctrl.Status().Phase; got != PhaseCanarying {
		t.Fatalf("phase after the restarted canary's ack = %v, want canarying: the 100 assessments in the registry predate the candidate", got)
	}
	reg.setCounters("g1", 10, 0)
	ctrl.OnCounters("g1")
	if got := ctrl.Status().Phase; got != PhaseCanarying {
		t.Fatalf("phase after 10 samples under the new process = %v, want canarying", got)
	}
	reg.setCounters("g1", 25, 20) // 25 under the candidate, 20 unknown
	ctrl.OnCounters("g1")
	if status := ctrl.Status(); status.Phase != PhaseIdle || status.Current != shaA {
		t.Fatalf("status = %+v, want the regression rolled back to %.12s", status, shaA)
	}
}

func TestRolloutRollsBackOnCanaryApplyFailure(t *testing.T) {
	ctrl, reg, _, _ := testController(t, t.TempDir(), "g1", "g2")

	shaA, _ := ctrl.SetCurrent([]byte("bank-A"))
	reg.setCounters("g1", 50, 0)
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	ctrl.OnModelAck("g1", shaB, false, "deserialize failed", nil)

	status := ctrl.Status()
	if status.Phase != PhaseIdle || status.Current != shaA {
		t.Fatalf("status after apply failure = %+v", status)
	}
}

func TestRolloutRollsBackWhenAllCanariesExpire(t *testing.T) {
	ctrl, _, _, _ := testController(t, t.TempDir(), "g1", "g2")

	ctrl.SetCurrent([]byte("bank-A"))
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	ctrl.OnModelAck("g1", shaB, true, "", nil)
	ctrl.OnExpire([]string{"g1"})

	if got := ctrl.Status().Phase; got != PhaseIdle {
		t.Fatalf("phase after losing every canary = %v, want idle (rolled back)", got)
	}
}

func TestRolloutOnEmptyFleetPromotesImmediately(t *testing.T) {
	ctrl, _, _, _ := testController(t, t.TempDir())

	sha, err := ctrl.StartRollout([]byte("bank-A"))
	if err != nil {
		t.Fatalf("StartRollout: %v", err)
	}
	status := ctrl.Status()
	if status.Phase != PhaseIdle || status.Current != sha {
		t.Fatalf("empty-fleet status = %+v", status)
	}
}

func TestRolloutRecoverResumesMidRollout(t *testing.T) {
	dir := t.TempDir()
	ctrl, _, st, _ := testController(t, dir, "g1", "g2", "g3")

	ctrl.SetCurrent([]byte("bank-A"))
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	// Crash before the canary ever acks: close the journal with the
	// rollout started but unresolved.
	st.Close()

	ctrl2, reg2, _, rec := testController(t, dir, "g1", "g2", "g3")
	shaA2, _ := ctrl2.SetCurrent([]byte("bank-A"))
	if err := ctrl2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	status := ctrl2.Status()
	if status.Phase != PhaseCanarying || status.Candidate != shaB || status.Current != shaA2 {
		t.Fatalf("recovered status = %+v (want canarying %.12s)", status, shaB)
	}
	if len(status.Canaries) != 1 {
		t.Fatalf("recovered canaries = %v, want the original single canary", status.Canaries)
	}

	// The resumed rollout completes normally: candidate bytes came
	// back from the versioned model store, the canary acks and holds.
	ctrl2.OnModelAck("g1", shaB, true, "", nil)
	reg2.setCounters("g1", 30, 0)
	ctrl2.OnCounters("g1")
	status = ctrl2.Status()
	if status.Phase != PhaseIdle || status.Current != shaB {
		t.Fatalf("post-recovery promotion status = %+v", status)
	}

	// The journal across both lives reads: started, promoted.
	want := []store.EventKind{store.EvRolloutStarted, store.EvRolloutPromoted}
	if got := journalKinds(t, dir); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("journal kinds = %v, want %v", got, want)
	}
}

// TestRolloutRecoverKeepsBaselineCurrent: a service that promoted the
// candidate serves it, and restarts serving it from its model store.
// Registering that bank with SetCurrent must not make the candidate the
// version every non-canary gateway converges on while it is unjudged.
func TestRolloutRecoverKeepsBaselineCurrent(t *testing.T) {
	dir := t.TempDir()
	ctrl, _, st, _ := testController(t, dir, "g1", "g2", "g3")
	shaA, _ := ctrl.SetCurrent([]byte("bank-A"))
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	st.Close()

	ctrl2, _, _, rec := testController(t, dir, "g1", "g2", "g3")
	ctrl2.SetCurrent([]byte("bank-B"))
	if err := ctrl2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if status := ctrl2.Status(); status.Phase != PhaseCanarying || status.Candidate != shaB || status.Current != shaA {
		t.Fatalf("recovered status = %+v, want canarying %.12s over current %.12s", status, shaB, shaA)
	}
	if sha, _ := ctrl2.ModelForGateway("g3", shaA); sha != "" {
		t.Errorf("non-canary g3 on the baseline is pushed %.12s mid-canary", sha)
	}
}

// TestRolloutRecoverAfterRollbackRestoresBaseline: the rollback record
// is durable, but the service died before OnRollback moved its serving
// bank back, so it boots the candidate it had promoted. Recover must
// name the baseline current again — a gateway registering after the
// restart is pushed it, never the rejected candidate — and run
// OnRollback again so the service serves the baseline too.
func TestRolloutRecoverAfterRollbackRestoresBaseline(t *testing.T) {
	dir := t.TempDir()
	ctrl, reg, st, _ := testController(t, dir, "g1", "g2", "g3")
	shaA, _ := ctrl.SetCurrent([]byte("bank-A"))
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	ctrl.OnModelAck("g1", shaB, true, "", nil)
	reg.setCounters("g1", 25, 25)
	ctrl.OnCounters("g1") // an all-unknown canary: rolled back
	st.Close()

	ctrl2, _, _, rec := testController(t, dir, "g1", "g2", "g3")
	var restored []string
	ctrl2.cfg.OnRollback = func(sha string, model []byte) {
		restored = append(restored, sha[:12]+" "+string(model))
	}
	ctrl2.SetCurrent([]byte("bank-B"))
	if err := ctrl2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if status := ctrl2.Status(); status.Phase != PhaseIdle || status.Current != shaA {
		t.Fatalf("recovered status = %+v, want idle on %.12s", status, shaA)
	}
	if sha, model := ctrl2.ModelForGateway("g4", ""); sha != shaA || string(model) != "bank-A" {
		t.Errorf("a new gateway is pushed %.12s (%q), want the baseline %.12s", sha, model, shaA)
	}
	if want := shaA[:12] + " bank-A"; len(restored) != 1 || restored[0] != want {
		t.Errorf("OnRollback runs = %q, want [%q]", restored, want)
	}
}

// TestControllerKeepsTwoBanks: the controller holds the bytes of its
// current bank and of the candidate in flight, no more; the model store
// keeps every other. Ten rollouts of distinct 64 KB banks, promoted and
// rolled back in turn, must leave at most three banks' worth of heap
// behind (current, plus slack). Not parallel: it reads the process heap.
func TestControllerKeepsTwoBanks(t *testing.T) {
	const size = 64 << 10
	bank := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, size) }
	reg := NewRegistry(time.Hour, nil)
	reg.register("g1", nil, time.Now())
	ctrl, err := NewController(ControllerConfig{Registry: reg, Policy: Policy{MinSamples: 20}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC() // twice: the second empties the sync.Pool victim caches
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ctrl.SetCurrent(bank(0)); err != nil {
		t.Fatal(err)
	}
	var assessed, unknown uint64
	for i := 1; i <= 10; i++ {
		sha, err := ctrl.StartRollout(bank(i))
		if err != nil {
			t.Fatal(err)
		}
		ctrl.OnModelAck("g1", sha, true, "", nil)
		assessed += 20
		promote := i%2 == 0
		if !promote {
			unknown += 20 // every assessment under the candidate unknown
		}
		reg.setCounters("g1", assessed, unknown)
		ctrl.OnCounters("g1")
		if st := ctrl.Status(); st.Phase != PhaseIdle || (st.Current == sha) != promote {
			t.Fatalf("rollout %d: status %+v, want it judged (promote %v)", i, st, promote)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(ctrl)
	t.Logf("after ten rollouts the controller retains %.0f B", got)
	if bound := 3 * size; got > float64(bound) {
		t.Errorf("after ten rollouts the controller retains %.0f B, bound %d", got, bound)
	}
}

func TestRolloutRecoverWithResolvedJournalStaysIdle(t *testing.T) {
	dir := t.TempDir()
	ctrl, reg, st, _ := testController(t, dir, "g1", "g2", "g3", "g4")

	ctrl.SetCurrent([]byte("bank-A"))
	shaB, _ := ctrl.StartRollout([]byte("bank-B"))
	ctrl.OnModelAck("g1", shaB, true, "", nil)
	reg.setCounters("g1", 30, 0)
	ctrl.OnCounters("g1") // promotes
	st.Close()

	ctrl2, _, _, rec := testController(t, dir, "g1")
	ctrl2.SetCurrent([]byte("bank-B"))
	if err := ctrl2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := ctrl2.Status().Phase; got != PhaseIdle {
		t.Fatalf("phase after recovering a resolved journal = %v, want idle", got)
	}
}
