package fleet

import (
	"net"
	"testing"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/store"
	"iotsentinel/internal/testutil"
)

// TestFleetShutdownLeaksNothing pins the managed-goroutine contract of
// the control plane's long-lived halves: after Session.Close and
// Server.Close return, the accept loop, per-connection readers, the
// lease sweeper, and the session's run loop and reader are all gone.
func TestFleetShutdownLeaksNothing(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	st, _, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(time.Hour, nil)
	ctrl, err := NewController(ControllerConfig{
		Registry: reg,
		Policy:   Policy{CanaryFraction: 0.25, MinSamples: 5, MaxUnknownDelta: 0.1},
		Store:    st,
		Models:   st.Models(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Registry:      reg,
		Controller:    ctrl,
		Ingest:        func(fps []fingerprint.Fingerprint) int { return 0 },
		SweepInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	sess, err := NewSession(SessionConfig{Client: ClientConfig{
		Addr:       ln.Addr().String(),
		GatewayID:  "gw-leaktest",
		ModelSHA:   "deadbeef",
		ApplyModel: func(string, []byte) error { return nil },
		Heartbeat:  10 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })
	// Let heartbeats and the sweeper tick at least once so the steady
	// state — not just construction — is what tears down.
	time.Sleep(50 * time.Millisecond)

	if err := sess.Close(); err != nil {
		t.Errorf("session close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("store close: %v", err)
	}
}
