package fleet

import (
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/chaos"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/store"
	"iotsentinel/internal/testutil"
)

// seedCounter tallies ingested fingerprints by their seed (seedOf,
// which the testFingerprint builder makes unique) so delivery-count assertions — exactly once,
// at least once — have something to count.
type seedCounter struct {
	mu sync.Mutex
	m  map[float64]int
}

func newSeedCounter() *seedCounter { return &seedCounter{m: make(map[float64]int)} }

func (c *seedCounter) ingest(fps []fingerprint.Fingerprint) int {
	c.mu.Lock()
	for _, fp := range fps {
		c.m[seedOf(fp)]++
	}
	c.mu.Unlock()
	return 0
}

func (c *seedCounter) distinct() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *seedCounter) counts() map[float64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[float64]int, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// startFleetWith is startFleet with a caller-owned ingest sink (wired
// before the server starts — swapping it afterwards would race the
// connection handlers).
func startFleetWith(t *testing.T, dir string, ingest func([]fingerprint.Fingerprint) int) *testFleet {
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
			return ingest(fps)
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

// registryModel reads the bank a gateway last acknowledged serving.
func registryModel(reg *Registry, id string) string {
	for _, g := range reg.Gateways() {
		if g.ID == id {
			return g.ModelSHA
		}
	}
	return ""
}

// stubServer is the minimal service side of one connection: it answers
// the hello with a welcome and then consumes frames, recording batch
// fingerprints and acking each batch, so client-focused tests need no
// full fleet stack.
type stubServer struct {
	ln net.Listener

	mu      sync.Mutex
	batches [][]fingerprint.Fingerprint
}

func startStubServer(t *testing.T) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &stubServer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *stubServer) serve(c net.Conn) {
	defer c.Close()
	t, _, err := readFrame(c)
	if err != nil || t != ftHello {
		return
	}
	welcome := welcomeMsg{Version: supportedVersions[0], LeaseMillis: time.Hour.Milliseconds()}
	payload, _ := json.Marshal(welcome)
	if writeFrame(c, ftWelcome, payload) != nil {
		return
	}
	for {
		t, payload, err := readFrame(c)
		if err != nil {
			return
		}
		switch t {
		case ftHeartbeat:
			writeFrame(c, ftHeartbeat, nil)
		case ftBatch:
			fps, err := decodeBatch(payload)
			if err != nil {
				return
			}
			s.mu.Lock()
			s.batches = append(s.batches, fps)
			s.mu.Unlock()
			ack, _ := json.Marshal(batchAckMsg{Accepted: len(fps)})
			writeFrame(c, ftBatchAck, ack)
		}
	}
}

func (s *stubServer) received() []fingerprint.Fingerprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	var all []fingerprint.Fingerprint
	for _, b := range s.batches {
		all = append(all, b...)
	}
	return all
}

// TestClientFlushRequeuesOnWriteError pins the Flush contract: a batch
// the wire refused goes back to the front of the buffer — the link is
// dead but the observations are not lost; a Session harvests them into
// its spool for the next connection.
func TestClientFlushRequeuesOnWriteError(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()
	srv, cli := net.Pipe()
	go func() {
		// One-shot handshake peer: welcome the client, then hang up so
		// the next write fails.
		t, _, err := readFrame(srv)
		if err != nil || t != ftHello {
			srv.Close()
			return
		}
		payload, _ := json.Marshal(welcomeMsg{Version: supportedVersions[0], LeaseMillis: time.Hour.Milliseconds()})
		writeFrame(srv, ftWelcome, payload)
	}()
	cl, err := Dial(ClientConfig{
		GatewayID: "g1",
		BatchSize: 1024,
		Heartbeat: time.Hour,
		Dialer:    func() (net.Conn, error) { return cli, nil },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	want := []fingerprint.Fingerprint{testFingerprint(3, 1), testFingerprint(3, 2), testFingerprint(4, 3)}
	for _, fp := range want {
		if err := cl.Observe(fp); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	srv.Close()
	waitFor(t, "client noticing the dead peer", func() bool {
		select {
		case <-cl.Done():
			return true
		default:
			return false
		}
	})

	if err := cl.Flush(); err == nil {
		t.Fatal("Flush over a dead link reported success")
	}
	cl.mu.Lock()
	got := append([]fingerprint.Fingerprint(nil), cl.buf...)
	cl.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("buffer holds %d fingerprints after failed Flush, want %d requeued", len(got), len(want))
	}
	for i := range want {
		if seedOf(got[i]) != seedOf(want[i]) {
			t.Fatalf("requeued fingerprint %d has seed %v, want %v (order lost)", i, seedOf(got[i]), seedOf(want[i]))
		}
	}
}

// TestClientCloseFlushesTail pins the clean-shutdown contract: Close
// delivers whatever is buffered (deadline-bounded) instead of
// discarding it.
func TestClientCloseFlushesTail(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	s := startStubServer(t)
	cl, err := Dial(ClientConfig{
		Addr:      s.ln.Addr().String(),
		GatewayID: "g1",
		BatchSize: 1024, // never auto-flushes: the tail is Close's job
		Heartbeat: time.Hour,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := cl.Observe(testFingerprint(3, float64(i))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitFor(t, "tail batch delivery", func() bool { return len(s.received()) == 3 })
}

// chaosDialerTo wraps TCP dials to addr with the given fault config.
func chaosDialerTo(addr string, cfg chaos.Config) *chaos.Dialer {
	return chaos.NewDialer(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, cfg)
}

// TestSessionSpoolsWhileDegradedAndDrainsOnConnect: a session whose
// first dials all fail buffers sealed batches (Degraded is a working
// state, not an error), then ships everything once a dial lands.
func TestSessionSpoolsWhileDegradedAndDrainsOnConnect(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	s := startStubServer(t)
	var gate atomic.Bool // closed until the test opens it
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID: "g1",
			BatchSize: 2,
			Heartbeat: 50 * time.Millisecond,
			Dialer: func() (net.Conn, error) {
				if !gate.Load() {
					return nil, errors.New("refused")
				}
				return net.Dial("tcp", s.ln.Addr().String())
			},
		},
		Retry: iotssp.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()

	if got := sess.State(); got != SessionDegraded {
		t.Fatalf("initial state = %v, want degraded", got)
	}
	for i := 0; i < 6; i++ {
		if err := sess.Observe(testFingerprint(3, float64(i))); err != nil {
			t.Fatalf("Observe while degraded: %v", err)
		}
	}
	waitFor(t, "3 sealed batches in the spool", func() bool { return sess.Stats().SpoolDepth == 3 })

	gate.Store(true)
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })
	waitFor(t, "spool drained to the server", func() bool { return len(s.received()) == 6 })
	waitFor(t, "acks retire the spool", func() bool { return sess.Stats().SpoolDepth == 0 })
	if d := sess.Stats().SpoolDropped; d != 0 {
		t.Fatalf("SpoolDropped = %d below the bound, want 0", d)
	}
}

// TestSessionSpoolBoundDropsOldest: when the spool bound is hit the
// oldest batch goes (counted), never the newest — bounded memory with
// freshest-data bias.
func TestSessionSpoolBoundDropsOldest(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()
	reg := NewLinkMetrics(obs.NewRegistry())
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID: "g1",
			BatchSize: 2,
			Dialer:    func() (net.Conn, error) { return nil, errors.New("down") },
		},
		Retry:        iotssp.RetryPolicy{BaseDelay: time.Hour}, // never retries within the test
		SpoolBatches: 3,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()

	for i := 0; i < 10; i++ {
		if err := sess.Observe(testFingerprint(3, float64(i))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	st := sess.Stats()
	if st.SpoolDepth != 3 {
		t.Fatalf("SpoolDepth = %d, want the bound 3", st.SpoolDepth)
	}
	if st.SpoolDropped != 4 {
		t.Fatalf("SpoolDropped = %d fingerprints, want 4 (two oldest batches of 2)", st.SpoolDropped)
	}
	sess.mu.Lock()
	oldest := seedOf(sess.spool[0][0])
	sess.mu.Unlock()
	if oldest != 4 {
		t.Fatalf("oldest surviving fingerprint seed = %v, want 4 (drop-oldest, not drop-newest)", oldest)
	}
}

// TestSessionReconnectDuringLeaseReplaysSpoolExactlyOnce: the link
// goes half-open mid-lease (long registry lease: the server never
// expires the gateway), the session detects it by read deadline,
// redials, and the registry sees a reconnect — with every batch that
// was swallowed by the dead link replayed and ingested exactly once.
func TestSessionReconnectDuringLeaseReplaysSpoolExactlyOnce(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	seen := newSeedCounter()
	f := startFleetWith(t, t.TempDir(), seen.ingest)

	d := chaosDialerTo(f.addr, chaos.Config{Seed: 99})
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID:   "g1",
			BatchSize:   2,
			Heartbeat:   25 * time.Millisecond,
			ReadTimeout: 150 * time.Millisecond,
			Dialer:      d.Dial,
		},
		Retry: iotssp.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	waitFor(t, "registration", func() bool { return len(f.reg.IDs()) == 1 })
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })

	// The network goes dark: the live conn becomes a half-open peer.
	d.Partition()
	// Everything observed now is written into the void (or spooled once
	// the session notices): at-least-once delivery must make it land
	// after the heal, and the learner-side dedup contract wants it
	// landing exactly once here, where no ack was ever received.
	for i := 0; i < 6; i++ {
		if err := sess.Observe(testFingerprint(3, float64(100+i))); err != nil {
			t.Fatalf("Observe during partition: %v", err)
		}
	}
	waitFor(t, "half-open peer detected", func() bool { return sess.State() == SessionDegraded })
	d.Heal()
	waitFor(t, "reconnection", func() bool { return sess.State() == SessionConnected })
	waitFor(t, "replayed batches ingested", func() bool { return seen.distinct() == 6 })
	waitFor(t, "acks retire the replayed spool", func() bool { return sess.Stats().SpoolDepth == 0 })

	for seed, n := range seen.counts() {
		if n != 1 {
			t.Fatalf("fingerprint seed %v ingested %d times, want exactly once", seed, n)
		}
	}
	if got := sess.Stats().Reconnects; got < 1 {
		t.Fatalf("Reconnects = %d, want ≥ 1", got)
	}
	if got := sess.Stats().SpoolDropped; got != 0 {
		t.Fatalf("SpoolDropped = %d, want 0", got)
	}
	// The lease is an hour: the registry held the registration across
	// the whole episode — the reconnect displaced the half-open conn
	// rather than re-admitting an expired gateway.
	if ids := f.reg.IDs(); len(ids) != 1 || ids[0] != "g1" {
		t.Fatalf("registry IDs = %v across reconnect, want [g1]", ids)
	}
}

// TestSessionCloseMidBackoffReturnsPromptly: Close must cancel a
// backoff sleep, not wait it out — and leak nothing.
func TestSessionCloseMidBackoffReturnsPromptly(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID: "g1",
			Dialer:    func() (net.Conn, error) { return nil, errors.New("down") },
		},
		Retry: iotssp.RetryPolicy{BaseDelay: time.Hour},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // land inside the hour-long backoff
	start := time.Now()
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v mid-backoff, want prompt cancellation", elapsed)
	}
	if got := sess.State(); got != SessionClosed {
		t.Fatalf("state after Close = %v, want closed", got)
	}
	if err := sess.Observe(testFingerprint(3, 1)); err == nil {
		t.Fatal("Observe after Close succeeded")
	}
}

// TestSessionCloseMidReplayLeaksNothing: Close while the link is
// half-open (writes succeeding into a blackhole, replay outstanding)
// releases every goroutine — the deadline-bounded final flush cannot
// hang on the dead peer.
func TestSessionCloseMidReplayLeaksNothing(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	f := startFleet(t, t.TempDir())
	d := chaosDialerTo(f.addr, chaos.Config{Seed: 7})
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID:    "g1",
			BatchSize:    2,
			Heartbeat:    25 * time.Millisecond,
			WriteTimeout: 250 * time.Millisecond,
			Dialer:       d.Dial,
		},
		Retry: iotssp.RetryPolicy{BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })
	d.Partition()
	for i := 0; i < 8; i++ {
		sess.Observe(testFingerprint(3, float64(i)))
	}
	done := make(chan struct{})
	go func() { sess.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung mid-replay against a half-open peer")
	}
}

// TestSessionCloseMidModelPushLeaksNothing: Close while ApplyModel is
// in flight on the reader goroutine waits it out and leaks nothing.
func TestSessionCloseMidModelPushLeaksNothing(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	f := startFleet(t, t.TempDir())
	sha, err := f.ctrl.SetCurrent([]byte("bank-slow"))
	if err != nil {
		t.Fatalf("SetCurrent: %v", err)
	}
	applying := make(chan struct{}, 1)
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			Addr:      f.addr,
			GatewayID: "g1",
			Heartbeat: 25 * time.Millisecond,
			ApplyModel: func(string, []byte) error {
				applying <- struct{}{}
				time.Sleep(150 * time.Millisecond)
				return nil
			},
		},
		Retry: iotssp.RetryPolicy{BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	<-applying // the connect-time push of bank-slow is mid-apply now
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The apply that was in flight completed before Close returned (the
	// reader goroutine is part of the waited set); whether its ack made
	// it out depends on timing, but the session recorded the bank.
	if got := sess.ModelSHA(); got != sha {
		t.Fatalf("ModelSHA after mid-push Close = %.12s, want %.12s", got, sha)
	}
}

// TestSessionStateCallbacksAndModelAdoption: OnState observes the
// degraded→connected→degraded ride, and a bank applied on one
// connection is re-offered in the next hello so the registry adopts it
// instead of re-pushing.
func TestSessionStateCallbacksAndModelAdoption(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	f := startFleet(t, t.TempDir())
	sha, err := f.ctrl.SetCurrent([]byte("bank-A"))
	if err != nil {
		t.Fatalf("SetCurrent: %v", err)
	}
	var mu sync.Mutex
	var states []SessionState
	var applies int
	d := chaosDialerTo(f.addr, chaos.Config{Seed: 3})
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID:   "g1",
			Heartbeat:   25 * time.Millisecond,
			ReadTimeout: 150 * time.Millisecond,
			ApplyModel: func(string, []byte) error {
				mu.Lock()
				applies++
				mu.Unlock()
				return nil
			},
			Dialer: d.Dial,
		},
		Retry: iotssp.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
		OnState: func(st SessionState) {
			mu.Lock()
			states = append(states, st)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	waitFor(t, "first model push applied", func() bool { return sess.ModelSHA() == sha })

	d.Partition()
	waitFor(t, "degraded", func() bool { return sess.State() == SessionDegraded })
	d.Heal()
	waitFor(t, "reconnected", func() bool { return sess.State() == SessionConnected })
	waitFor(t, "registry re-adopts the served bank", func() bool { return registryModel(f.reg, "g1") == sha })

	mu.Lock()
	defer mu.Unlock()
	if applies != 1 {
		t.Fatalf("ApplyModel ran %d times, want 1: the reconnect hello re-offers %.12s and the registry adopts instead of re-pushing", applies, sha)
	}
	want := []SessionState{SessionConnected, SessionDegraded, SessionConnected}
	if len(states) < 3 {
		t.Fatalf("observed states %v, want at least %v", states, want)
	}
	for i, st := range want {
		if states[i] != st {
			t.Fatalf("state transition %d = %v, want %v (full ride %v)", i, states[i], st, states)
		}
	}
}
