package fleet

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"iotsentinel/internal/fingerprint"
)

// ServerConfig wires a fleet server.
type ServerConfig struct {
	// Registry tracks the gateway fleet (required).
	Registry *Registry
	// Controller, if set, drives model distribution and canary
	// rollouts; without one the server only ingests.
	Controller *Controller
	// Ingest receives every decoded fingerprint batch and returns how
	// many of the fingerprints no central classifier accepted (the
	// per-batch unknown count echoed in the ack). Required. It is the
	// seam to internal/iotssp: the daemon wires a closure over
	// Service.Assess so fleet does not import the service layer.
	Ingest func(fps []fingerprint.Fingerprint) (unknown int)
	// SweepInterval is how often expired leases are collected
	// (0 selects half the registry lease).
	SweepInterval time.Duration
	// WriteTimeout bounds every frame write so one slow-consumer
	// gateway cannot wedge the ack path or a model push forever
	// (0 selects DefaultWriteTimeout).
	WriteTimeout time.Duration
	// ReadTimeout bounds how long a connection may sit silent before
	// its handler gives up (0 selects twice the registry lease: a
	// healthy gateway heartbeats at a third of the lease, and the
	// sweeper owns registry-level expiry — this is the backstop that
	// unblocks the conn goroutine from a half-open peer).
	ReadTimeout time.Duration
	// Metrics, if set, receives wire instrumentation.
	Metrics *Metrics
	// Logf, if set, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

// Server accepts gateway connections and speaks the fleet protocol:
// hello/welcome handshake with version negotiation, lease-refreshing
// heartbeats, fingerprint batch ingest, counters, and model push/ack.
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*serverConn]struct{}
	closed bool

	wg        sync.WaitGroup
	stopSweep chan struct{}
}

// NewServer assembles a fleet server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("fleet: ServerConfig.Registry is required")
	}
	if cfg.Ingest == nil {
		return nil, errors.New("fleet: ServerConfig.Ingest is required")
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.Registry.Lease() / 2
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * cfg.Registry.Lease()
	}
	return &Server{
		cfg:       cfg,
		conns:     make(map[*serverConn]struct{}),
		stopSweep: make(chan struct{}),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Close. It owns ln and blocks;
// run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("fleet: server closed")
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.sweepLeases()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sc := &serverConn{srv: s, framedConn: framedConn{c: c, writeTimeout: s.cfg.WriteTimeout}}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.run()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
		}()
	}
}

// sweepLeases periodically expires lapsed registrations and tells the
// controller, which may shrink (or fail) an in-flight canary set.
func (s *Server) sweepLeases() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case now := <-t.C:
			expired := s.cfg.Registry.ExpireLeases(now)
			if len(expired) == 0 {
				continue
			}
			s.logf("fleet: leases expired: %v", expired)
			if s.cfg.Controller != nil {
				s.cfg.Controller.OnExpire(expired)
			}
		}
	}
}

// Close stops accepting, closes every live connection, and waits for
// connection handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	close(s.stopSweep)
	if ln != nil {
		ln.Close()
	}
	for _, sc := range conns {
		sc.close()
	}
	s.wg.Wait()
	return nil
}

// serverConn is one gateway connection; the read loop's acks and the
// controller's model pushes share its serialized writes.
type serverConn struct {
	framedConn
	srv       *Server
	closeOnce sync.Once
}

func (sc *serverConn) remoteAddr() string { return sc.c.RemoteAddr().String() }

func (sc *serverConn) close() {
	sc.closeOnce.Do(func() { sc.c.Close() })
}

// pushModel sends one versioned bank down the connection. sha is the
// blob's hex SHA-256 (the content address the model store uses).
func (sc *serverConn) pushModel(sha string, model []byte) error {
	raw, err := hex.DecodeString(sha)
	if err != nil || len(raw) != 32 {
		return fmt.Errorf("fleet: model sha %q is not a hex SHA-256", sha)
	}
	var sum [32]byte
	copy(sum[:], raw)
	payload := encodeModelPush(sum, model)
	if err := sc.write(ftModelPush, payload); err != nil {
		return err
	}
	sc.srv.cfg.Metrics.incModelPush(len(payload))
	return nil
}

// fail writes an error frame (best effort) and closes the connection.
func (sc *serverConn) fail(msg string) {
	sc.writeJSON(ftError, errorMsg{Msg: msg})
	sc.close()
}

// run drives one connection: handshake, then the frame dispatch loop.
func (sc *serverConn) run() {
	defer sc.close()
	s := sc.srv

	// Handshake: the first frame must be a hello. Every read runs under
	// the server's silence backstop.
	t, payload, err := sc.read(s.cfg.ReadTimeout)
	if err != nil {
		s.logf("fleet: %s: handshake read: %v", sc.remoteAddr(), err)
		return
	}
	if t != ftHello {
		sc.fail(fmt.Sprintf("expected hello, got %s", t))
		return
	}
	var hello helloMsg
	if err := json.Unmarshal(payload, &hello); err != nil {
		sc.fail("malformed hello")
		return
	}
	if hello.GatewayID == "" {
		sc.fail("hello without a gateway id")
		return
	}
	version, ok := negotiate(hello.Versions)
	if !ok {
		sc.fail(fmt.Sprintf("no shared protocol version (offered %v, speak %v)", hello.Versions, supportedVersions))
		return
	}
	s.cfg.Metrics.incFrame(ftHello)

	id := hello.GatewayID
	if displaced := s.cfg.Registry.register(id, sc, time.Now()); displaced != nil {
		s.logf("fleet: gateway %s reconnected from %s, displacing previous connection", id, sc.remoteAddr())
		displaced.close()
	}
	defer s.cfg.Registry.disconnect(id, sc)
	if hello.ModelSHA != "" {
		s.cfg.Registry.setModel(id, hello.ModelSHA)
	}

	welcome := welcomeMsg{Version: version, LeaseMillis: s.cfg.Registry.Lease().Milliseconds()}
	if s.cfg.Controller != nil {
		welcome.ModelSHA = s.cfg.Controller.Current()
	}
	if err := sc.writeJSON(ftWelcome, welcome); err != nil {
		s.logf("fleet: %s: welcome: %v", id, err)
		return
	}
	s.logf("fleet: gateway %s registered from %s (protocol v%d)", id, sc.remoteAddr(), version)

	// Converge the newcomer onto the right bank: mid-rollout canaries
	// get the candidate, everyone else the fleet's current version.
	if s.cfg.Controller != nil {
		if sha, model := s.cfg.Controller.ModelForGateway(id, hello.ModelSHA); sha != "" {
			if err := sc.pushModel(sha, model); err != nil {
				s.logf("fleet: push %.12s to %s: %v", sha, id, err)
			}
		}
	}

	for {
		t, payload, err := sc.read(s.cfg.ReadTimeout)
		if err != nil {
			s.logf("fleet: gateway %s disconnected: %v", id, err)
			return
		}
		s.cfg.Registry.touch(id, time.Now())
		s.cfg.Metrics.incFrame(t)
		switch t {
		case ftHeartbeat:
			// The touch refreshes the lease; the echo is the gateway's
			// read-liveness signal — without it a half-open peer looks
			// identical to a quiet healthy server and the client's
			// read deadline could not tell them apart.
			if err := sc.write(ftHeartbeat, nil); err != nil {
				s.logf("fleet: gateway %s: heartbeat echo: %v", id, err)
				return
			}
		case ftBatch:
			fps, err := decodeBatch(payload)
			if err != nil {
				sc.fail(fmt.Sprintf("bad batch: %v", err))
				return
			}
			unknown := s.cfg.Ingest(fps)
			s.cfg.Metrics.observeBatch(len(fps), len(payload))
			if err := sc.writeJSON(ftBatchAck, batchAckMsg{Accepted: len(fps), Unknown: unknown}); err != nil {
				s.logf("fleet: gateway %s: batch ack: %v", id, err)
				return
			}
		case ftCounters:
			assessed, unknown, err := decodeCounters(payload)
			if err != nil {
				sc.fail(err.Error())
				return
			}
			s.cfg.Registry.setCounters(id, assessed, unknown)
			if s.cfg.Controller != nil {
				s.cfg.Controller.OnCounters(id)
			}
		case ftModelAck:
			var ack modelAckMsg
			if err := json.Unmarshal(payload, &ack); err != nil {
				sc.fail("malformed model ack")
				return
			}
			if s.cfg.Controller != nil {
				s.cfg.Controller.OnModelAck(id, ack.SHA, ack.OK, ack.Error, ack.Base)
			} else if ack.OK {
				s.cfg.Registry.setModel(id, ack.SHA)
			}
		case ftError:
			var em errorMsg
			json.Unmarshal(payload, &em)
			s.logf("fleet: gateway %s reported: %s", id, em.Msg)
			return
		default:
			sc.fail(fmt.Sprintf("unexpected frame %s", t))
			return
		}
	}
}
