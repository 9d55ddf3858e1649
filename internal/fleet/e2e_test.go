package fleet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/store"
)

// fakeGateway is a fleet session plus a recorder of every bank it was
// pushed (and applied).
type fakeGateway struct {
	sess *Session

	mu      sync.Mutex
	applied []string
}

func (g *fakeGateway) ApplyModel(sha string, model []byte) error {
	g.mu.Lock()
	g.applied = append(g.applied, sha)
	g.mu.Unlock()
	return nil
}

// lastApplied returns the most recently applied bank SHA ("" if none).
func (g *fakeGateway) lastApplied() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.applied) == 0 {
		return ""
	}
	return g.applied[len(g.applied)-1]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testFleet is one service side: registry, controller over a journaled
// store, server on a real TCP listener, and an ingest counter.
type testFleet struct {
	reg      *Registry
	ctrl     *Controller
	srv      *Server
	st       *store.Store
	rec      *store.Recovery
	addr     string
	ingested atomic.Int64
}

func startFleet(t *testing.T, dir string) *testFleet {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	f := &testFleet{st: st, rec: rec}
	f.reg = NewRegistry(time.Hour, nil)
	f.ctrl, err = NewController(ControllerConfig{
		Registry: f.reg,
		Policy:   Policy{CanaryFraction: 0.25, MinSamples: 5, MaxUnknownDelta: 0.1},
		Store:    st,
		Models:   st.Models(),
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	f.srv, err = NewServer(ServerConfig{
		Registry:   f.reg,
		Controller: f.ctrl,
		Ingest: func(fps []fingerprint.Fingerprint) int {
			f.ingested.Add(int64(len(fps)))
			return 0
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f.addr = ln.Addr().String()
	go f.srv.Serve(ln)
	t.Cleanup(func() {
		f.srv.Close()
		f.st.Close()
	})
	return f
}

// dial links a gateway to the fleet and waits for its registration.
func (f *testFleet) dial(t *testing.T, id, modelSHA string) *fakeGateway {
	t.Helper()
	g := &fakeGateway{}
	sess, err := NewSession(SessionConfig{Client: ClientConfig{
		Addr:       f.addr,
		GatewayID:  id,
		ModelSHA:   modelSHA,
		ApplyModel: g.ApplyModel,
		BatchSize:  1024, // flush manually for determinism
		Heartbeat:  25 * time.Millisecond,
	}})
	if err != nil {
		t.Fatalf("NewSession(%s): %v", id, err)
	}
	g.sess = sess
	t.Cleanup(func() { sess.Close() })
	waitFor(t, id+" connecting", func() bool { return sess.State() == SessionConnected })
	return g
}

// TestFleetCanaryPromoteAndRollback drives the full control plane over
// real TCP: three gateways register and stream fingerprints, a new
// bank canaries to one of them and auto-promotes fleet-wide when the
// canary's unknown-rate holds, then a regressing bank canaries and
// auto-rolls back.
func TestFleetCanaryPromoteAndRollback(t *testing.T) {
	f := startFleet(t, t.TempDir())
	shaA, err := f.ctrl.SetCurrent([]byte("bank-A"))
	if err != nil {
		t.Fatalf("SetCurrent: %v", err)
	}

	g1 := f.dial(t, "g1", shaA)
	g2 := f.dial(t, "g2", shaA)
	g3 := f.dial(t, "g3", shaA)
	waitFor(t, "3 registrations", func() bool { return len(f.reg.IDs()) == 3 })

	// Streamed fingerprint ingest: every gateway batches observations
	// up the persistent connection.
	for i, g := range []*fakeGateway{g1, g2, g3} {
		for j := 0; j < 4; j++ {
			if err := g.sess.Observe(testFingerprint(3+j, float64(i*100+j))); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		if err := g.sess.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	waitFor(t, "12 ingested fingerprints", func() bool { return f.ingested.Load() == 12 })

	// Canary a new bank: ceil(0.25×3) = 1 canary, the first sorted ID.
	shaB, err := f.ctrl.StartRollout([]byte("bank-B"))
	if err != nil {
		t.Fatalf("StartRollout: %v", err)
	}
	waitFor(t, "canary g1 applies the candidate", func() bool { return g1.lastApplied() == shaB })
	if got := g2.lastApplied(); got != "" {
		t.Fatalf("non-canary g2 was pushed %.12s mid-canary", got)
	}

	// The canary holds: clean assessments beyond MinSamples.
	for i := 0; i < 8; i++ {
		g1.sess.RecordAssessment(false)
	}
	if err := g1.sess.Flush(); err != nil {
		t.Fatalf("Flush counters: %v", err)
	}
	waitFor(t, "promotion", func() bool {
		s := f.ctrl.Status()
		return s.Phase == PhaseIdle && s.Current == shaB
	})
	waitFor(t, "fleet-wide push", func() bool {
		return g2.lastApplied() == shaB && g3.lastApplied() == shaB
	})

	// Now a regressing bank: the canary's unknown-rate spikes and the
	// rollout auto-rolls back, restoring the baseline on the canary.
	shaC, err := f.ctrl.StartRollout([]byte("bank-C"))
	if err != nil {
		t.Fatalf("StartRollout(C): %v", err)
	}
	waitFor(t, "canary g1 applies the regressing candidate", func() bool { return g1.lastApplied() == shaC })
	for i := 0; i < 8; i++ {
		g1.sess.RecordAssessment(true) // injected regression: all unknown
	}
	if err := g1.sess.Flush(); err != nil {
		t.Fatalf("Flush counters: %v", err)
	}
	waitFor(t, "rollback", func() bool {
		s := f.ctrl.Status()
		return s.Phase == PhaseIdle && s.Current == shaB
	})
	waitFor(t, "canary restored to baseline", func() bool { return g1.lastApplied() == shaB })
	if got := g2.lastApplied(); got != shaB {
		t.Fatalf("non-canary g2 serving %.12s after rollback, want %.12s", got, shaB)
	}
}

// TestFleetControllerCrashMidRolloutRecovers kills the whole service
// side between the canary push and the judgment, restarts it over the
// same state directory, and checks the journaled rollout resumes and
// completes.
func TestFleetControllerCrashMidRolloutRecovers(t *testing.T) {
	dir := t.TempDir()
	f := startFleet(t, dir)
	shaA, _ := f.ctrl.SetCurrent([]byte("bank-A"))

	g1 := f.dial(t, "g1", shaA)
	f.dial(t, "g2", shaA)
	f.dial(t, "g3", shaA)
	waitFor(t, "3 registrations", func() bool { return len(f.reg.IDs()) == 3 })

	shaB, err := f.ctrl.StartRollout([]byte("bank-B"))
	if err != nil {
		t.Fatalf("StartRollout: %v", err)
	}
	waitFor(t, "canary g1 applies the candidate", func() bool { return g1.lastApplied() == shaB })

	// Crash: the started event is journaled (durable), the judgment
	// never happened. Every connection dies with the server.
	f.srv.Close()
	f.st.Close()

	// Restart over the same state directory.
	f2 := startFleet(t, dir)
	if _, err := f2.ctrl.SetCurrent([]byte("bank-A")); err != nil {
		t.Fatalf("SetCurrent after restart: %v", err)
	}
	if err := f2.ctrl.Recover(f2.rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	status := f2.ctrl.Status()
	if status.Phase != PhaseCanarying || status.Candidate != shaB {
		t.Fatalf("recovered status = %+v, want canarying %.12s", status, shaB)
	}

	// The canary reconnects already serving the candidate (it applied
	// before the crash): the controller adopts it and restarts its
	// judgment window instead of re-pushing.
	g1b := f2.dial(t, "g1", shaB)
	g2b := f2.dial(t, "g2", shaA)
	g3b := f2.dial(t, "g3", shaA)
	waitFor(t, "re-registrations", func() bool { return len(f2.reg.IDs()) == 3 })
	waitFor(t, "canary adopted", func() bool { return f2.ctrl.Status().Canaries["g1"] })

	for i := 0; i < 8; i++ {
		g1b.sess.RecordAssessment(false)
	}
	if err := g1b.sess.Flush(); err != nil {
		t.Fatalf("Flush counters: %v", err)
	}
	waitFor(t, "promotion after recovery", func() bool {
		s := f2.ctrl.Status()
		return s.Phase == PhaseIdle && s.Current == shaB
	})
	waitFor(t, "fleet-wide push after recovery", func() bool {
		return g2b.lastApplied() == shaB && g3b.lastApplied() == shaB
	})

	// A third boot sees a resolved journal: started + promoted, no
	// rollout left in flight.
	f2.srv.Close()
	f2.st.Close()
	f3 := startFleet(t, dir)
	f3.ctrl.SetCurrent([]byte("bank-B"))
	if err := f3.ctrl.Recover(f3.rec); err != nil {
		t.Fatalf("final Recover: %v", err)
	}
	if got := f3.ctrl.Status().Phase; got != PhaseIdle {
		t.Fatalf("phase after resolved recovery = %v, want idle", got)
	}
}

// TestFleetLeaseExpiryDropsGateway covers the server-side sweeper:
// a gateway that stops heartbeating is dropped at lease expiry.
func TestFleetLeaseExpiryDropsGateway(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	reg := NewRegistry(150*time.Millisecond, nil)
	srv, err := NewServer(ServerConfig{
		Registry:      reg,
		Ingest:        func([]fingerprint.Fingerprint) int { return 0 },
		SweepInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	var dials atomic.Int32
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID: "g1",
			Heartbeat: time.Hour, // never heartbeats: the lease must lapse
			Dialer: func() (net.Conn, error) {
				if dials.Add(1) > 1 {
					return nil, errors.New("the dropped gateway stays away")
				}
				return net.Dial("tcp", ln.Addr().String())
			},
		},
		Retry: iotssp.RetryPolicy{BaseDelay: time.Hour},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	waitFor(t, "registration", func() bool { return len(reg.IDs()) == 1 })
	waitFor(t, "lease expiry", func() bool { return len(reg.IDs()) == 0 })
}
