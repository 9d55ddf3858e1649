package fleet

import (
	"encoding/json"
	"errors"
	"net"
	"runtime"
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
	ln   net.Listener
	mute atomic.Bool // set: batches are recorded but not acked

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
			if !s.mute.Load() {
				ack, _ := json.Marshal(batchAckMsg{Accepted: len(fps)})
				writeFrame(c, ftBatchAck, ack)
			}
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

// brittleConn is a connection whose writes can be made to fail while
// its reads keep waiting, which is how a write error reaches a link its
// reader still takes for healthy.
type brittleConn struct {
	net.Conn
	broken *atomic.Bool
}

func (c brittleConn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, errors.New("write refused")
	}
	return c.Conn.Write(p)
}

// TestSessionFailedWriteStaysSpooledAndIsDeliveredOnce pins what a
// write error costs: the link, and nothing else. The batch the wire
// refused is still the spool's, whole and in order, and the next
// connection delivers it exactly once.
func TestSessionFailedWriteStaysSpooledAndIsDeliveredOnce(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	srv := startStubServer(t)
	var broken atomic.Bool
	redial := make(chan struct{}) // holds the second dial back until the spool has been looked at
	openRedial := sync.OnceFunc(func() { close(redial) })
	dials := 0
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID: "g1",
			BatchSize: 1024,
			Heartbeat: time.Hour,
			Dialer: func() (net.Conn, error) {
				if dials++; dials > 1 {
					<-redial
				}
				c, err := net.Dial("tcp", srv.ln.Addr().String())
				if err != nil {
					return nil, err
				}
				return brittleConn{Conn: c, broken: &broken}, nil
			},
		},
		Retry: iotssp.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	defer openRedial() // first, or a failed test would leave Close waiting on the held dial
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })

	want := []fingerprint.Fingerprint{testFingerprint(3, 1), testFingerprint(3, 2), testFingerprint(4, 3)}
	for _, fp := range want {
		if err := sess.Observe(fp); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	broken.Store(true)
	if err := sess.Flush(); err == nil {
		t.Fatal("Flush over a link that refuses writes reported success")
	}
	waitFor(t, "the write error degrading the link", func() bool { return sess.State() == SessionDegraded })
	sess.mu.Lock()
	depth := len(sess.spool)
	held, err := decodeBatch(sess.spool[0])
	sess.mu.Unlock()
	if err != nil || depth != 1 || len(held) != len(want) {
		t.Fatalf("spool holds %d batches, the first of %d fingerprints (%v); want the one refused batch of %d", depth, len(held), err, len(want))
	}

	broken.Store(false)
	openRedial()
	waitFor(t, "redelivery", func() bool { return len(srv.received()) >= len(want) })
	waitFor(t, "the ack retiring the batch", func() bool { return sess.Stats().SpoolDepth == 0 })
	got := srv.received()
	if len(got) != len(want) {
		t.Fatalf("server received %d fingerprints, want %d exactly once", len(got), len(want))
	}
	for i := range want {
		if seedOf(got[i]) != seedOf(want[i]) || seedOf(held[i]) != seedOf(want[i]) {
			t.Fatalf("fingerprint %d: spooled seed %v, delivered seed %v, want %v (order lost)", i, seedOf(held[i]), seedOf(got[i]), seedOf(want[i]))
		}
	}
}

// TestSessionAckDebtDiesWithItsConnection: an entry the bound drops
// after it was written is still owed an ack, and that debt swallows one.
// The debt belongs to the connection the entry was written on: carried
// into the next one it would swallow the ack of a replayed batch, and
// the spool would never drain again.
func TestSessionAckDebtDiesWithItsConnection(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	srv := startStubServer(t)
	srv.mute.Store(true)
	var broken atomic.Bool
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID: "g1",
			BatchSize: 1,
			Heartbeat: time.Hour,
			Dialer: func() (net.Conn, error) {
				c, err := net.Dial("tcp", srv.ln.Addr().String())
				if err != nil {
					return nil, err
				}
				return brittleConn{Conn: c, broken: &broken}, nil
			},
		},
		Retry:        iotssp.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		SpoolBatches: 2,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })

	// Three batches written and none acked: the third pushes the first,
	// already on the wire, out of the spool.
	for i := 1; i <= 3; i++ {
		if err := sess.Observe(testFingerprint(3, float64(i))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	waitFor(t, "three written batches", func() bool { return len(srv.received()) == 3 })
	if st := sess.Stats(); st.SpoolDepth != 2 || st.SpoolDropped != 1 {
		t.Fatalf("stats = %+v, want 2 spooled and 1 dropped", st)
	}

	// The link dies owing that ack; the next one replays the two
	// survivors to a server that acks again.
	broken.Store(true)
	sess.RecordAssessment(false)
	if err := sess.Flush(); err == nil {
		t.Fatal("Flush over a link that refuses writes reported success")
	}
	waitFor(t, "the write error degrading the link", func() bool { return sess.State() == SessionDegraded })
	srv.mute.Store(false)
	broken.Store(false)
	waitFor(t, "the replayed batches", func() bool { return len(srv.received()) == 5 })
	waitFor(t, "both acks retiring them", func() bool { return sess.Stats().SpoolDepth == 0 })
}

// TestSessionCloseFlushesTail pins the clean-shutdown contract: Close
// over a live link delivers the open batch (deadline-bounded) instead
// of discarding it.
func TestSessionCloseFlushesTail(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	s := startStubServer(t)
	sess, err := NewSession(SessionConfig{Client: ClientConfig{
		Addr:      s.ln.Addr().String(),
		GatewayID: "g1",
		BatchSize: 1024, // never seals by itself: the tail is Close's job
		Heartbeat: time.Hour,
	}})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })
	for i := 0; i < 3; i++ {
		if err := sess.Observe(testFingerprint(3, float64(i))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if err := sess.Close(); err != nil {
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
// state, not an error), then ships everything once a dial lands — the
// part-full batch too when flushing is timed, since the timer does not
// run without a link.
func TestSessionSpoolsWhileDegradedAndDrainsOnConnect(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	s := startStubServer(t)
	var gate atomic.Bool // closed until the test opens it
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID:     "g1",
			BatchSize:     2,
			FlushInterval: time.Hour, // its first tick is out of the test's reach
			Heartbeat:     50 * time.Millisecond,
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
	for i := 0; i < 7; i++ {
		if err := sess.Observe(testFingerprint(3, float64(i))); err != nil {
			t.Fatalf("Observe while degraded: %v", err)
		}
	}
	waitFor(t, "3 sealed batches in the spool", func() bool { return sess.Stats().SpoolDepth == 3 })

	gate.Store(true)
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })
	waitFor(t, "spool and open batch drained to the server", func() bool { return len(s.received()) == 7 })
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
	oldest, err := decodeBatch(sess.spool[0])
	sess.mu.Unlock()
	if err != nil || seedOf(oldest[0]) != 4 {
		t.Fatalf("oldest surviving batch = %v (%v), want one starting at seed 4 (drop-oldest, not drop-newest)", oldest, err)
	}
}

// TestSessionDegradedMemoryBound: the spool holds what the wire will
// carry — 99 B for a 12-row setup capture, the soak's size — not the
// fingerprints it was handed (2.2 KB each with their F′), so a gateway
// whose uplink is down for good stays within a few megabytes at the
// default bound, sheds oldest first beyond it and counts what it shed
// in fingerprints.
func TestSessionDegradedMemoryBound(t *testing.T) {
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
	defer sess.Close()
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	const (
		batch    = 64 // the default BatchSize
		overflow = 3  // batches beyond the bound
		tail     = 10 // fingerprints left in the open batch
	)
	before := heap()
	for i := 0; i < (DefaultSpoolBatches+overflow)*batch+tail; i++ {
		if err := sess.Observe(testFingerprint(12, float64(i*16))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	retained := float64(heap()-before) / (1 << 20)
	t.Logf("a full spool of %d-fingerprint batches retains %.2f MB", batch, retained)
	if retained > 4 {
		t.Errorf("a full spool retains %.1f MB, want < 4 MB", retained)
	}
	st := sess.Stats()
	if st.SpoolDepth != DefaultSpoolBatches || st.SpoolDropped != overflow*batch {
		t.Fatalf("spool holds %d batches and dropped %d fingerprints, want %d and %d", st.SpoolDepth, st.SpoolDropped, DefaultSpoolBatches, overflow*batch)
	}
	sess.mu.Lock()
	oldest, err := decodeBatch(sess.spool[0])
	sess.mu.Unlock()
	if err != nil || len(oldest) != batch || seedOf(oldest[0]) != overflow*batch*16 {
		t.Fatalf("oldest surviving batch: %d fingerprints from seed %v (%v), want %d from %d", len(oldest), seedOf(oldest[0]), err, batch, overflow*batch*16)
	}
}

// TestSessionBadFingerprintFailsAlone: a fingerprint the wire cannot
// carry is refused when it is observed, where the caller can see which
// one it was, and never reaches a batch: its neighbours are delivered
// and acked as if it had not been there.
func TestSessionBadFingerprintFailsAlone(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	srv := startStubServer(t)
	cfg := SessionConfig{Client: ClientConfig{
		Addr:      srv.ln.Addr().String(),
		GatewayID: "g1",
		BatchSize: maxBatchFingerprints + 1,
	}}
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("NewSession accepted a BatchSize no batch frame can carry")
	}
	cfg.Client.BatchSize = 4
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })

	for i, fp := range []fingerprint.Fingerprint{
		testFingerprint(3, 1),
		{}, // no rows
		testFingerprint(5, 2),
		testFingerprint(maxFingerprintRows+1, 3),
		testFingerprint(maxFingerprintRows, 4),
		testFingerprint(1, 5),
	} {
		err := sess.Observe(fp)
		if bad := len(fp.F) == 0 || len(fp.F) > maxFingerprintRows; bad != (err != nil) {
			t.Fatalf("Observe of fingerprint %d (%d rows) = %v", i, len(fp.F), err)
		}
	}
	waitFor(t, "the batch of the four good ones", func() bool { return len(srv.received()) == 4 })
	waitFor(t, "its ack", func() bool { return sess.Stats().SpoolDepth == 0 })
	for i, fp := range srv.received() {
		if want := []float64{1, 2, 4, 5}[i]; seedOf(fp) != want {
			t.Fatalf("delivered fingerprint %d has seed %v, want %v", i, seedOf(fp), want)
		}
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
