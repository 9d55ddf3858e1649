package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
)

// DefaultSpoolBatches bounds the replay spool when the config does not
// say otherwise: at the default batch size of 64 fingerprints that is
// ~16k observations — minutes of outage for a busy gateway — before
// drop-oldest kicks in.
const DefaultSpoolBatches = 256

// ClientConfig is the link's connection parameters (the gateway side).
type ClientConfig struct {
	// Addr is the fleet server address (host:port). Ignored when
	// Dialer is set.
	Addr string
	// GatewayID is this gateway's stable identity (required).
	GatewayID string
	// ModelSHA is the hex SHA-256 of the bank the gateway serves when
	// the session starts ("" for none). Every hello offers the bank last
	// applied — this one until a push lands — and the server pushes the
	// fleet version when they differ.
	ModelSHA string
	// ApplyModel, if set, is called from the reader goroutine for each
	// model push; a nil return acknowledges the bank as applied, an
	// error is reported back to the service (and, for a canary,
	// fails the rollout). A nil ApplyModel rejects every push.
	ApplyModel func(sha string, model []byte) error
	// BatchSize is how many observed fingerprints seal a batch (0
	// selects 64; the wire carries at most 4096).
	BatchSize int
	// FlushInterval, if > 0, seals the open batch and sends changed
	// counters on a timer while the link is up, and once on every new
	// connection, even when BatchSize is never reached.
	FlushInterval time.Duration
	// Heartbeat overrides the heartbeat period (0 selects a third of
	// the server-granted lease).
	Heartbeat time.Duration
	// WriteTimeout bounds every frame write, the TCP dial and the
	// handshake's welcome read; 0 selects DefaultWriteTimeout.
	WriteTimeout time.Duration
	// ReadTimeout bounds how long the reader waits between frames;
	// 0 derives it from the heartbeat (3 beats plus a second of
	// slack). The server echoes every heartbeat, so a healthy link
	// always has inbound traffic inside the window and a half-open
	// peer is detected when it closes.
	ReadTimeout time.Duration
	// Dialer overrides how the connection is made (tests and the soak
	// put fault injection here); nil dials TCP to Addr, cancelled by
	// Close.
	Dialer func() (net.Conn, error)
	// Logf, if set, receives lifecycle lines.
	Logf func(format string, args ...any)
}

// SessionState is the managed link's externally visible condition.
type SessionState int32

// Session states. Degraded is not an error: the gateway keeps serving
// its local bank fail-closed while the session spools observations and
// redials under backoff.
const (
	SessionDegraded SessionState = iota
	SessionConnected
	SessionClosed
)

// String returns the lowercase state name.
func (s SessionState) String() string {
	switch s {
	case SessionConnected:
		return "connected"
	case SessionClosed:
		return "closed"
	default:
		return "degraded"
	}
}

// SessionConfig wires a managed fleet session.
type SessionConfig struct {
	// Client holds the connection parameters. GatewayID and one of
	// Addr/Dialer are required.
	Client ClientConfig
	// Retry shapes the reconnect backoff; the zero value uses the
	// iotssp defaults (100ms base, 5s cap, ×2, ±20% deterministic
	// jitter). MaxAttempts is ignored — a session redials until
	// closed; that is its job.
	Retry iotssp.RetryPolicy
	// Clock injects time for the backoff sleeps (nil selects the
	// system clock); tests drive reconnect schedules without real
	// waiting.
	Clock iotssp.Clock
	// SpoolBatches bounds how many sealed, un-acked batches are
	// retained for replay across disconnects (0 selects
	// DefaultSpoolBatches). When full the oldest batch is dropped
	// and counted — bounded memory beats unbounded grief.
	SpoolBatches int
	// OnState, if set, observes every state transition (gatewayd logs
	// and exposes it through /healthz). Called from session
	// goroutines; must not block.
	OnState func(SessionState)
	// Metrics, if set, receives link instrumentation (NewLinkMetrics
	// registers the gateway-side families).
	Metrics *Metrics
}

// SessionStats is a point-in-time snapshot of the managed link.
type SessionStats struct {
	// Reconnects counts successful re-handshakes after a drop (the
	// first connect is not a reconnect).
	Reconnects uint64
	// SpoolDepth is the number of sealed batches currently held.
	SpoolDepth int
	// SpoolDropped counts fingerprints discarded because the spool
	// hit its bound.
	SpoolDropped uint64
}

// Session is a gateway's link to the fleet server. It streams observed
// fingerprints up in binary batches, reports cumulative assess/unknown
// counters, refreshes its lease with heartbeats and applies the model
// banks pushed down — over a connection it owns: dial, hello/welcome,
// serve until a read or write fails, back off with jitter, redial.
// Observations are encoded as they arrive into the payload of the open
// batch; a sealed payload waits in a bounded spool until the server acks
// it and is written again on every new connection until then. Delivery
// is therefore at-least-once — a batch whose ack was lost in a
// disconnect is sent again, and the central learner dedupes by canonical
// fingerprint key — and the cumulative counters make counter resync
// idempotent. While no link is up the session reports Degraded and
// keeps accepting observations; the gateway's local serving is untouched
// either way.
type Session struct {
	cfg SessionConfig // as given, defaults filled in

	// Cumulative assessment counters: they outlive every connection,
	// and each connection's first counters frame carries the full
	// totals (idempotent resync).
	assessed atomic.Uint64
	unknown  atomic.Uint64

	mu       sync.Mutex
	link     *link    // live connection, nil while degraded
	pending  []byte   // payload of the open batch, its count not yet written
	pendingN int      // fingerprints in pending
	spool    [][]byte // sealed payloads awaiting their ack, oldest first
	nextSend int      // spool entries already written on link
	ackDebt  int      // acks still due on link for entries dropped after being written
	state    SessionState
	closed   bool
	modelSHA string
	connects uint64 // successful handshakes
	dropped  uint64

	// sendMu serializes everything that writes spool entries or
	// counters: batches must reach the wire in spool order, or the
	// in-order acks would retire the wrong entries.
	sendMu sync.Mutex

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// link is one connection's lifetime within a Session.
type link struct {
	framedConn
	heartbeat   time.Duration
	readTimeout time.Duration
	// lost closes when the reader has exited, which every failure on
	// the connection leads to.
	lost chan struct{}
	// err is the first failure (Session.mu).
	err error
	// sentAssessed/sentUnknown are the counters last written on this
	// connection (Session.sendMu). They start at zero, so a fresh
	// connection's first counters frame carries the totals.
	sentAssessed, sentUnknown uint64
}

// NewSession starts the managed link. It returns immediately: the
// first connection attempt happens in the background, and until it
// succeeds the session is Degraded and spooling. Close releases it.
func NewSession(cfg SessionConfig) (*Session, error) {
	s := &Session{cfg: cfg, pending: make([]byte, batchHeader), modelSHA: cfg.Client.ModelSHA}
	c := &s.cfg.Client
	switch {
	case c.GatewayID == "":
		return nil, errors.New("fleet: SessionConfig.Client.GatewayID is required")
	case c.Dialer == nil && c.Addr == "":
		return nil, errors.New("fleet: SessionConfig.Client needs an Addr or a Dialer")
	case c.BatchSize > maxBatchFingerprints:
		return nil, fmt.Errorf("fleet: BatchSize %d exceeds the %d fingerprints one batch frame carries", c.BatchSize, maxBatchFingerprints)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if s.cfg.SpoolBatches <= 0 {
		s.cfg.SpoolBatches = DefaultSpoolBatches
	}
	if s.cfg.Retry.BaseDelay <= 0 {
		// RetryPolicy's own default, spelled out because run also reads
		// it as how long a connection must live to count as stable.
		s.cfg.Retry.BaseDelay = 100 * time.Millisecond
	}
	if s.cfg.Clock == nil {
		s.cfg.Clock = iotssp.SystemClock()
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if c.Dialer == nil {
		// Bounded and cancellable, so Close never waits on a hung connect.
		c.Dialer = func() (net.Conn, error) {
			d := net.Dialer{Timeout: c.WriteTimeout}
			return d.DialContext(s.ctx, "tcp", c.Addr)
		}
	}
	s.cfg.Metrics.setLinkUp(false)
	s.wg.Add(1)
	go s.run()
	return s, nil
}

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Client.Logf != nil {
		s.cfg.Client.Logf(format, args...)
	}
}

// run is the session's one long-lived goroutine: connect, serve the
// connection until it is lost, back off, repeat.
func (s *Session) run() {
	defer s.wg.Done()
	clock, retry := s.cfg.Clock, s.cfg.Retry
	for attempt := 0; s.ctx.Err() == nil; {
		l, err := s.connect()
		if err != nil {
			s.logf("fleet: link dial failed (attempt %d): %v", attempt+1, err)
		} else {
			connectedAt := clock.Now()
			if closing := s.serve(l); closing {
				return
			}
			s.setState(SessionDegraded)
			s.mu.Lock()
			err = l.err
			s.mu.Unlock()
			s.logf("fleet: link lost: %v", err)
			// A connection that died young counts as a failure so a
			// flapping peer meets backoff, not a hot dial loop; one
			// that lived resets the schedule.
			if clock.Now().Sub(connectedAt) >= retry.BaseDelay {
				attempt = 0
				continue
			}
		}
		attempt++
		if clock.Sleep(s.ctx, retry.Backoff(attempt)) != nil {
			return
		}
	}
}

// connect dials and registers. The hello offers the bank the session
// last applied, so a service that already has this gateway on it adopts
// that instead of pushing it again.
func (s *Session) connect() (*link, error) {
	c, err := s.cfg.Client.Dialer()
	if err != nil {
		return nil, fmt.Errorf("fleet: dial: %w", err)
	}
	l := &link{
		framedConn: framedConn{c: c, writeTimeout: s.cfg.Client.WriteTimeout},
		lost:       make(chan struct{}),
	}
	id := s.cfg.Client.GatewayID
	w, err := handshake(&l.framedConn, helloMsg{Versions: supportedVersions, GatewayID: id, ModelSHA: s.ModelSHA()})
	if err != nil {
		c.Close()
		return nil, err
	}
	lease := time.Duration(w.LeaseMillis) * time.Millisecond
	s.logf("fleet: registered as %s (protocol v%d, lease %s, fleet model %.12s)", id, w.Version, lease, w.ModelSHA)
	// The heartbeat period, and from it the read deadline, depend on the
	// lease the welcome granted.
	l.heartbeat = s.cfg.Client.Heartbeat
	if l.heartbeat <= 0 {
		l.heartbeat = lease / 3
	}
	if l.heartbeat <= 0 {
		l.heartbeat = DefaultLease / 3
	}
	l.readTimeout = s.cfg.Client.ReadTimeout
	if l.readTimeout <= 0 {
		l.readTimeout = 3*l.heartbeat + time.Second
	}
	return l, nil
}

// handshake sends the hello and reads the service's answer to it.
func handshake(fc *framedConn, hello helloMsg) (welcomeMsg, error) {
	var w welcomeMsg
	if err := fc.writeJSON(ftHello, hello); err != nil {
		return w, fmt.Errorf("fleet: hello: %w", err)
	}
	t, payload, err := fc.read(fc.writeTimeout)
	if err != nil {
		return w, fmt.Errorf("fleet: handshake: %w", err)
	}
	switch t {
	case ftWelcome:
		if err := json.Unmarshal(payload, &w); err != nil {
			return w, fmt.Errorf("fleet: malformed welcome: %w", err)
		}
		if _, ok := negotiate([]uint32{w.Version}); !ok {
			return w, fmt.Errorf("fleet: server picked unsupported protocol v%d", w.Version)
		}
		return w, nil
	case ftError:
		var em errorMsg
		json.Unmarshal(payload, &em)
		return w, fmt.Errorf("fleet: server rejected registration: %s", em.Msg)
	default:
		return w, fmt.Errorf("fleet: expected welcome, got %s", t)
	}
}

// serve makes l the live connection and drives it — replay, then
// heartbeats and timed flushes — until it is lost or the session closes
// (closing). Either way l's reader has exited when serve returns.
func (s *Session) serve(l *link) (closing bool) {
	s.mu.Lock()
	s.link = l
	s.nextSend, s.ackDebt = 0, 0 // nothing is written or owed on a new connection
	s.connects++
	reconnects := s.connects - 1
	s.mu.Unlock()
	if reconnects > 0 {
		s.cfg.Metrics.incReconnect()
		s.logf("fleet: link re-established (reconnect #%d)", reconnects)
	}
	go s.readLoop(l)
	defer func() {
		<-l.lost
		// Whatever was written without an ack stays in the spool for the
		// next connection's replay.
		s.mu.Lock()
		s.link = nil
		s.mu.Unlock()
	}()
	s.setState(SessionConnected)
	heartbeat := time.NewTicker(l.heartbeat)
	defer heartbeat.Stop()
	var flush <-chan time.Time
	if every := s.cfg.Client.FlushInterval; every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		flush = t.C
		// The timer ran only while a link was up: what it would have
		// sealed during the outage goes out with the replay.
		s.mu.Lock()
		s.sealLocked()
		s.mu.Unlock()
	}
	// Replay everything un-acked, then resync the cumulative counters;
	// both are idempotent on the server side.
	s.flushLink(l)

	for {
		select {
		case <-s.ctx.Done():
			// Best-effort tail delivery, deadline-bounded: Close sealed
			// the open batch before cancelling.
			s.flushLink(l)
			l.c.Close()
			return true
		case <-l.lost:
			return false
		case <-heartbeat.C:
			if err := l.write(ftHeartbeat, nil); err != nil {
				s.fail(l, err)
			} else {
				s.flushLink(l)
			}
		case <-flush:
			s.Flush()
		}
	}
}

// fail tears l down: its socket closes, so its reader exits and serve
// sees the loss. The first error to arrive is the one reported.
func (s *Session) fail(l *link, err error) {
	s.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	s.mu.Unlock()
	l.c.Close()
}

// readLoop handles frames from the service: heartbeat echoes, batch
// acks, model pushes, errors. The per-frame read deadline is the
// liveness detector: the server echoes heartbeats, so a healthy link
// delivers something every beat and a half-open peer times the loop
// out within ~3 beats instead of blocking forever.
func (s *Session) readLoop(l *link) {
	defer close(l.lost)
	for {
		t, payload, err := l.read(l.readTimeout)
		if err != nil {
			s.fail(l, fmt.Errorf("fleet: link read: %w", err))
			return
		}
		switch t {
		case ftHeartbeat:
			// The server's echo; arriving at all is its whole content.
		case ftBatchAck:
			s.onAck()
		case ftModelPush:
			err = s.handleModelPush(l, payload)
		case ftError:
			var em errorMsg
			json.Unmarshal(payload, &em)
			err = fmt.Errorf("fleet: server error: %s", em.Msg)
		default:
			err = fmt.Errorf("fleet: unexpected frame %s from server", t)
		}
		if err != nil {
			s.fail(l, err)
			return
		}
	}
}

// handleModelPush verifies the pushed blob against its SHA, hands it
// to ApplyModel, and acks the outcome.
func (s *Session) handleModelPush(l *link, payload []byte) error {
	sha, model, err := decodeModelPush(payload)
	if err != nil {
		return err
	}
	hexSHA := hex.EncodeToString(sha[:])
	// The ack carries the counters as they stand before the bank is
	// applied: assessments made under it reach the wire through the
	// flush path, which can overtake the ack, and the service must be
	// able to tell them from what came before.
	assessed, unknown := s.counters()
	ack := modelAckMsg{SHA: hexSHA, Base: &counterPair{Assessed: assessed, Unknown: unknown}}
	if apply := s.cfg.Client.ApplyModel; sha256.Sum256(model) != sha {
		ack.Error = "model blob does not match its SHA-256"
	} else if apply == nil {
		ack.Error = "gateway does not accept model pushes"
	} else if err := apply(hexSHA, model); err != nil {
		ack.Error = err.Error()
	} else {
		ack.OK = true
		s.mu.Lock()
		s.modelSHA = hexSHA
		s.mu.Unlock()
		s.logf("fleet: applied pushed model %.12s", hexSHA)
	}
	if ack.Error != "" {
		s.logf("fleet: rejected pushed model %.12s: %s", hexSHA, ack.Error)
	}
	return l.writeJSON(ftModelAck, ack)
}

func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	changed := s.state != st && s.state != SessionClosed
	if changed {
		s.state = st
	}
	s.mu.Unlock()
	if !changed {
		return
	}
	s.cfg.Metrics.setLinkUp(st == SessionConnected)
	if s.cfg.OnState != nil {
		s.cfg.OnState(st)
	}
}

// State reports the link's current condition.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// ModelSHA returns the hex SHA-256 of the last bank the session
// applied (or the configured initial value).
func (s *Session) ModelSHA() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.modelSHA
}

// Stats snapshots the link's resilience counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Reconnects:   max(s.connects, 1) - 1,
		SpoolDepth:   len(s.spool),
		SpoolDropped: s.dropped,
	}
}

// RecordAssessment bumps the cumulative counters the service judges
// canaries by; they travel with the next flush or heartbeat and
// survive reconnects.
func (s *Session) RecordAssessment(unknown bool) {
	s.assessed.Add(1)
	if unknown {
		s.unknown.Add(1)
	}
}

// counters reads the cumulative counters, unknown first:
// RecordAssessment bumps assessed before unknown, so this order keeps
// unknown ≤ assessed.
func (s *Session) counters() (assessed, unknown uint64) {
	unknown = s.unknown.Load()
	return s.assessed.Load(), unknown
}

// Observe adds one fingerprint to the open batch, failing — alone — one
// the wire cannot carry. At BatchSize the batch is sealed into the
// spool and, when a link is up, written out; while degraded it just
// spools, bounded by SpoolBatches.
func (s *Session) Observe(fp fingerprint.Fingerprint) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("fleet: session closed")
	}
	var err error
	if s.pending, err = appendBatchFingerprint(s.pending, s.pendingN, fp); err != nil {
		s.mu.Unlock()
		return err
	}
	s.pendingN++
	var l *link
	if s.pendingN >= s.cfg.Client.BatchSize {
		s.sealLocked()
		l = s.link
	}
	s.mu.Unlock()
	s.flushLink(l)
	return nil
}

// sealLocked moves the open batch into the spool as its finished frame
// payload, dropping the oldest sealed batch when the bound is hit.
// Callers hold s.mu.
func (s *Session) sealLocked() {
	if s.pendingN == 0 {
		return
	}
	if len(s.spool) >= s.cfg.SpoolBatches {
		lost := batchCount(s.spool[0])
		if s.nextSend > 0 {
			// The dropped batch was already written on the live conn;
			// its ack will still arrive and must not retire a
			// surviving batch.
			s.nextSend--
			s.ackDebt++
		}
		s.spool[0] = nil
		s.spool = s.spool[1:]
		s.dropped += uint64(lost)
		s.cfg.Metrics.addSpoolDropped(lost)
		s.logf("fleet: spool full, dropped oldest batch (%d fingerprints)", lost)
	}
	sealBatch(s.pending, s.pendingN)
	// An exact-size copy goes to the spool; the open batch keeps its
	// buffer, which therefore stops growing after the first batches.
	s.spool = append(s.spool, append([]byte(nil), s.pending...))
	s.pending, s.pendingN = s.pending[:batchHeader], 0
	s.cfg.Metrics.setSpoolDepth(len(s.spool))
}

// flushLink writes every not-yet-written spooled batch to l in order —
// the in-order acks retire them as the server responds — and then the
// counters, if they moved since they were last written on l. A failed
// write tears l down and loses nothing: the spool keeps what is not
// acked and the next connection resends the counters in full. No link
// (nil), nothing to do.
func (s *Session) flushLink(l *link) error {
	if l == nil {
		return nil
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	for {
		s.mu.Lock()
		if s.link != l || s.nextSend >= len(s.spool) {
			s.mu.Unlock()
			break
		}
		batch := s.spool[s.nextSend]
		s.nextSend++
		s.mu.Unlock()
		if err := l.write(ftBatch, batch); err != nil {
			s.fail(l, err)
			return err
		}
	}
	assessed, unknown := s.counters()
	if assessed == l.sentAssessed && unknown == l.sentUnknown {
		return nil
	}
	l.sentAssessed, l.sentUnknown = assessed, unknown
	if err := l.write(ftCounters, encodeCounters(assessed, unknown)); err != nil {
		s.fail(l, err)
		return err
	}
	return nil
}

// onAck retires the oldest outstanding batch. The server acks batches
// in order per connection, so the front of the written window is
// always the one being acknowledged — unless that slot was dropped by
// the spool bound after being written, which the debt accounts for.
func (s *Session) onAck() {
	s.mu.Lock()
	switch {
	case s.ackDebt > 0:
		s.ackDebt--
	case s.nextSend > 0 && len(s.spool) > 0:
		s.spool[0] = nil
		s.spool = s.spool[1:]
		s.nextSend--
	}
	depth := len(s.spool)
	s.mu.Unlock()
	s.cfg.Metrics.setSpoolDepth(depth)
}

// Flush seals the open batch and, when a link is up, writes the spool
// and the counters out, returning the write error that tore the link
// down if one did. Degraded sessions just spool — that is the point.
func (s *Session) Flush() error {
	s.mu.Lock()
	s.sealLocked()
	l := s.link
	s.mu.Unlock()
	return s.flushLink(l)
}

// Close stops the reconnect loop, attempts a final deadline-bounded
// flush over any live link, and releases every session goroutine.
func (s *Session) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.sealLocked()
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	s.setState(SessionClosed)
	return nil
}
