package store_test

import (
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
)

// scriptedAssessor trusts every device until told to fail.
type scriptedAssessor struct{ down atomic.Bool }

func (a *scriptedAssessor) Assess(fingerprint.Fingerprint) (iotssp.Assessment, error) {
	if a.down.Load() {
		return iotssp.Assessment{}, errors.New("service down")
	}
	return iotssp.Assessment{Type: "Plug", Known: true, Level: sdn.Trusted}, nil
}

func newGateway(a iotssp.Assessor, cfg gateway.Config) *gateway.Gateway {
	ctrl := sdn.NewController(sdn.NewRuleCache(), netip.Prefix{})
	return gateway.New(a, sdn.NewSwitch(ctrl, time.Minute), cfg)
}

// crashImage is what a kill -9 at this instant leaves on disk: the state
// directory's files as they are, recovered by a fresh gateway.
func crashImage(t *testing.T, dir string) *gateway.Gateway {
	t.Helper()
	image := t.TempDir()
	files, err := filepath.Glob(filepath.Join(dir, "*.*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rec, err := store.Open(image, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec.Degraded {
		t.Fatalf("crash image recovered degraded: %v", rec.Warnings)
	}
	g := newGateway(&scriptedAssessor{}, gateway.Config{})
	if _, err := g.Recover(rec, time.Unix(9000, 0)); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCrashRecoveryDemotionOrdering pins the ordering of DESIGN §11:
// strict rule installed → demotion durable → demotion acknowledged. The
// commit hook holds the disk still after a demotion was enqueued: the
// crash image taken then has lost the record, so the demotion must not
// have been acknowledged yet — callback not fired, RemoveDevice not
// returned, rule not evicted — and what the image recovers to is never
// more permissive than the last state that was.
func TestCrashRecoveryDemotionOrdering(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var held atomic.Bool
	reached, release := make(chan struct{}), make(chan struct{})
	st.SetCommitHook(func() {
		if held.Load() {
			reached <- struct{}{}
			<-release
		}
	})

	assessor := &scriptedAssessor{}
	var quarantinedFired atomic.Int32
	g := newGateway(assessor, gateway.Config{
		Store:         st,
		OnQuarantined: func(gateway.DeviceInfo, error) { quarantinedFired.Add(1) },
	})
	join := func(mac packet.MAC) {
		arp := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"), netip.MustParseAddr("192.168.1.1"))
		if _, err := g.HandlePacket(time.Unix(100, 0), arp); err != nil {
			t.Error(err)
		}
		if err := g.FinishSetup(mac, time.Unix(101, 0)); err != nil {
			t.Error(err)
		}
	}
	level := func(g *gateway.Gateway, mac packet.MAC) sdn.IsolationLevel {
		if r, ok := g.Switch().Controller().Rules().Get(mac); ok {
			return r.Level
		}
		return sdn.Strict // no rule ⇒ strict
	}

	// X is assessed trusted — acknowledged, and committed.
	x, y := packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}
	join(x)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Y's assessment fails: quarantined live, the record enqueued, the
	// commit held.
	assessor.down.Store(true)
	held.Store(true)
	done := make(chan struct{})
	go func() { join(y); done <- struct{}{} }()
	<-reached
	if info, _ := g.Device(y); info.State != gateway.StateQuarantined || level(g, y) != sdn.Strict {
		t.Fatalf("live gateway before the commit: %+v at %v, want strict quarantine", info, level(g, y))
	}
	if n := quarantinedFired.Load(); n != 0 {
		t.Fatalf("OnQuarantined fired %d times before the demotion was durable", n)
	}
	// A retry drain that finds the service back must leave Y alone until
	// its demotion has been acknowledged: a promotion acknowledged first
	// would have its callback overtaken by the demotion's.
	assessor.down.Store(false)
	if n, err := g.RetryQuarantined(time.Unix(200, 0)); n != 0 || err != nil {
		t.Fatalf("retry drain promoted %d devices (%v) ahead of the demotion's acknowledgement", n, err)
	}
	lost := crashImage(t, dir)
	if _, ok := lost.Device(y); ok || level(lost, y) != sdn.Strict {
		t.Fatalf("the image that lost Y's demotion recovers Y at %v", level(lost, y))
	}
	if level(lost, x) != sdn.Trusted {
		t.Fatalf("the image recovers X at %v, want its acknowledged trusted", level(lost, x))
	}
	held.Store(false)
	release <- struct{}{}
	<-done
	if n := quarantinedFired.Load(); n != 1 {
		t.Fatalf("OnQuarantined fired %d times after the commit, want 1", n)
	}
	if info, ok := crashImage(t, dir).Device(y); !ok || info.State != gateway.StateQuarantined {
		t.Fatalf("acknowledged demotion of Y not in the crash image: %+v", info)
	}
	if n, err := g.RetryQuarantined(time.Unix(200, 0)); n != 1 || err != nil {
		t.Fatalf("retry drain after the acknowledgement promoted %d devices (%v), want 1", n, err)
	}

	// X is removed: its rule stays until the removal is durable.
	held.Store(true)
	go func() { g.RemoveDevice(x); done <- struct{}{} }()
	<-reached
	if level(g, x) != sdn.Trusted {
		t.Fatal("X's rule evicted before its removal was durable")
	}
	if lost := crashImage(t, dir); level(lost, x) != sdn.Trusted {
		t.Fatalf("the image that lost X's removal recovers X at %v, want the acknowledged trusted", level(lost, x))
	}
	held.Store(false)
	release <- struct{}{}
	<-done
	if level(g, x) != sdn.Strict {
		t.Fatal("X's rule still installed after RemoveDevice returned")
	}
	if _, ok := crashImage(t, dir).Device(x); ok {
		t.Fatal("acknowledged removal of X not in the crash image")
	}
}
