package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/netsim"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
	"iotsentinel/internal/vulndb"
)

// The production topologies, assembled the way cmd/gatewayd and
// cmd/iotsspd wire them with -metrics-addr set: every obs bundle is
// attached, every Config value is the daemon's default. Two values have
// no daemon flag and are taken from the only other caller, cmd/loadgen:
// the per-shard assess queue depth, and the lossless ring. (A lossy ring
// publishes one block per frame while its reader is parked, so a burst
// of more than eight frames into an idle reader sheds the rest; a
// workload on which frames are lost has failed operations by design.)

// assessQueueDepth is cmd/loadgen's -queue default. gatewayd has no flag
// for it and assesses inline; the benchmark measures the queued pipeline
// because the issue's join spans (queue wait, apply) are its stages.
const assessQueueDepth = 256

// Daemon defaults that are flag values rather than package constants.
const (
	trainCaptures       = 20               // -captures
	clientAssessTimeout = 10 * time.Second // gatewayd -assess-timeout
	clientAssessRetries = 3                // gatewayd -assess-retries
	serverAssessTimeout = 30 * time.Second // iotsspd -assess-timeout
	fleetFlushInterval  = time.Second      // gatewayd's session flush
	checkpointEvery     = 2 * time.Second
	retryEvery          = 500 * time.Millisecond
)

type topoKind int

const (
	topoLocal   topoKind = iota // in-process service, no store
	topoDurable                 // + journal, fleet uplink, checkpoints, retries
	topoRemote                  // iotssp.Client -> iotssp.Handler over loopback HTTP
	topoService                 // the service alone (service_identify)
)

// topology is one assembled system under test.
type topology struct {
	kind topoKind
	// reg is the gateway process's registry; central is the registry of
	// what would be the iotsspd process (HTTP server, fleet server).
	reg     *obs.Registry
	central *obs.Registry

	id  *core.Identifier
	svc *iotssp.Service
	lab *netsim.Lab
	gw  *gateway.Gateway
	fan *capture.Fanout
	// pump is attached by the harness, which owns the frame handler.
	pump *capture.Pump

	stateDir  string
	st        *store.Store
	storeErrs atomic.Int64
	notified  atomic.Int64

	sess          *fleet.Session
	fleetSrv      *fleet.Server
	fleetIngested atomic.Int64
	fleetObserved atomic.Int64
	fleetWire     atomic.Int64 // bytes written on the fleet connection

	httpSrv   *http.Server
	httpTrans *http.Transport
	httpReq   atomic.Int64 // request body bytes
	httpResp  atomic.Int64 // response body bytes
	httpRTs   atomic.Int64 // round trips

	// served is closed when the loopback server's Serve has returned.
	served chan struct{}
}

// trainBank trains the classifier bank exactly as the daemons' cold
// start does: the reference dataset under the run's seed, default
// workers, default identification cache.
func trainBank(seed int64, captures int, reg *obs.Registry) (*core.Identifier, error) {
	raw := devices.GenerateDataset(captures, seed)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint, len(raw))
	for k, v := range raw {
		ds[core.TypeID(k)] = v
	}
	id, err := core.Train(ds, core.Config{Seed: seed, CacheSize: core.DefaultCacheSize})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if reg != nil {
		id.SetMetrics(core.NewMetrics(reg))
	}
	return id, nil
}

// fleetAssessor is gatewayd's decoration of the in-process service:
// counters plus a fire-and-forget observation stream.
type fleetAssessor struct {
	inner *iotssp.Service
	t     *topology
}

func (fa *fleetAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	a, err := fa.inner.Assess(fp)
	if err == nil {
		fa.t.sess.RecordAssessment(!a.Known)
		if fa.t.sess.Observe(fp) == nil {
			fa.t.fleetObserved.Add(1)
		}
	}
	return a, err
}

// countingConn counts the bytes the gateway side writes to the fleet link.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingTransport counts assess round trips and their body bytes.
type countingTransport struct {
	inner http.RoundTripper
	t     *topology
}

type countingBody struct {
	rc interface {
		Read([]byte) (int, error)
		Close() error
	}
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b countingBody) Close() error { return b.rc.Close() }

func (ct countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.t.httpRTs.Add(1)
	if req.ContentLength > 0 {
		ct.t.httpReq.Add(req.ContentLength)
	}
	resp, err := ct.inner.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{rc: resp.Body, n: &ct.t.httpResp}
	}
	return resp, err
}

// hooks are the boundaries the harness owns inside a topology.
type hooks struct {
	// wrap decorates the assessor handed to gateway.New (failure
	// injection, assess spans); nil leaves it bare.
	wrap          func(iotssp.Assessor) iotssp.Assessor
	onAssessed    func(gateway.DeviceInfo)
	onQuarantined func(gateway.DeviceInfo, error)
}

// readers is the capture reader count: with one generator goroutine the
// load is sized to the host's cores.
func readers() int {
	if n := runtime.GOMAXPROCS(0) - 1; n > 1 {
		return n
	}
	return 1
}

// buildTopology assembles one system under test. stateDir is used by
// topoDurable only.
func buildTopology(kind topoKind, seed int64, captures int, stateDir string, h hooks) (*topology, error) {
	t := &topology{kind: kind, reg: obs.NewRegistry(), central: obs.NewRegistry(), stateDir: stateDir}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()

	bankReg := t.reg
	if kind == topoRemote {
		bankReg = t.central
	}
	id, err := trainBank(seed, captures, bankReg)
	if err != nil {
		return nil, err
	}
	t.id = id
	t.svc = iotssp.New(id, vulndb.NewDefault())
	if kind == topoService {
		ok = true
		return t, nil
	}

	var assessor iotssp.Assessor = t.svc
	switch kind {
	case topoDurable:
		if err := t.startStore(); err != nil {
			return nil, err
		}
		if err := t.startFleet(seed); err != nil {
			return nil, err
		}
		assessor = &fleetAssessor{inner: t.svc, t: t}
	case topoRemote:
		client, err := t.startRemote(seed)
		if err != nil {
			return nil, err
		}
		assessor = client
	}
	if h.wrap != nil {
		assessor = h.wrap(assessor)
	}

	lab, err := netsim.NewLab(seed)
	if err != nil {
		return nil, err
	}
	t.lab = lab
	sw := lab.Net.Switch()
	sw.SetMetrics(sdn.NewSwitchMetrics(t.reg))
	t.gw = gateway.New(assessor, sw, gateway.Config{
		Shards:        gateway.DefaultShards,
		AssessQueue:   assessQueueDepth,
		Metrics:       gateway.NewMetrics(t.reg),
		Store:         t.st,
		OnStoreError:  func(error) { t.storeErrs.Add(1) },
		OnAssessed:    h.onAssessed,
		OnQuarantined: h.onQuarantined,
		OnNotify:      func(gateway.Notification) { t.notified.Add(1) },
	})
	t.fan = capture.NewFanout(readers(), capture.RingConfig{Lossless: true})
	ok = true
	return t, nil
}

func (t *topology) startStore() error {
	if err := os.RemoveAll(t.stateDir); err != nil {
		return err
	}
	st, _, err := store.Open(t.stateDir, store.Options{Metrics: store.NewMetrics(t.reg)})
	if err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	t.st = st
	return nil
}

// startFleet brings up the central fleet server on loopback (ingest
// only counts: the central bank's work belongs to another process) and
// the gateway's managed session to it.
func (t *topology) startFleet(seed int64) error {
	fm := fleet.NewMetrics(t.central)
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Registry: fleet.NewRegistry(fleet.DefaultLease, fm),
		Ingest: func(fps []fingerprint.Fingerprint) int {
			t.fleetIngested.Add(int64(len(fps)))
			return 0
		},
		Metrics: fm,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("fleet listen: %w", err)
	}
	t.fleetSrv = srv
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		_ = srv.Serve(ln)
	}()
	addr := ln.Addr().String()
	sess, err := fleet.NewSession(fleet.SessionConfig{
		Client: fleet.ClientConfig{
			GatewayID:     "bench-gw",
			FlushInterval: fleetFlushInterval,
			Dialer: func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: c, n: &t.fleetWire}, nil
			},
		},
		Retry:        iotssp.RetryPolicy{Seed: uint64(seed)},
		SpoolBatches: fleet.DefaultSpoolBatches,
		Metrics:      fleet.NewLinkMetrics(t.reg),
	})
	if err != nil {
		return err
	}
	t.sess = sess
	for waited := time.Duration(0); sess.State() != fleet.SessionConnected; waited += time.Millisecond {
		if waited > 5*time.Second {
			return errors.New("fleet: session did not connect over loopback")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// startRemote serves the bank behind iotsspd's handler stack on loopback
// and returns gatewayd's client for it, limited to as many connections
// as the host has cores.
func (t *topology) startRemote(seed int64) (*iotssp.Client, error) {
	handler := iotssp.HandlerWithMetrics(t.svc, iotssp.NewServerMetrics(t.central))
	handler = http.TimeoutHandler(handler, serverAssessTimeout, "assessment timed out")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("iotssp listen: %w", err)
	}
	t.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		_ = t.httpSrv.Serve(ln)
	}()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = runtime.GOMAXPROCS(0)
	tr.MaxIdleConnsPerHost = runtime.GOMAXPROCS(0)
	t.httpTrans = tr
	breaker := iotssp.NewCircuitBreaker(0, 0, nil)
	client := &iotssp.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: countingTransport{inner: tr, t: t}},
		Timeout:    clientAssessTimeout,
		Retry:      iotssp.RetryPolicy{MaxAttempts: clientAssessRetries + 1, Seed: uint64(seed)},
		Breaker:    breaker,
		Metrics:    iotssp.NewClientMetrics(t.reg),
	}
	client.Metrics.ObserveBreaker(breaker)
	return client, nil
}

// closeFleetLink flushes and closes the gateway's session and waits for
// the central side to have ingested every observation, so the oracle
// can compare the two counts.
func (t *topology) closeFleetLink() {
	if t.sess == nil {
		return
	}
	// Close seals what is buffered and sends it only if the link's loop
	// gets to it before the cancellation does: flush first.
	_ = t.sess.Flush()
	for waited := time.Duration(0); t.fleetIngested.Load() < t.fleetObserved.Load() && waited < 2*time.Second; waited += time.Millisecond {
		time.Sleep(time.Millisecond)
	}
	_ = t.sess.Close()
	t.sess = nil
}

func (t *topology) closeStore() error {
	if t.st == nil {
		return nil
	}
	err := t.st.Close()
	t.st = nil
	return err
}

// close stops everything the topology started and waits for it: readers
// first, then the gateway's workers, then the links and servers they
// talk to, then the store. It is safe to call after the partial closes
// above, and twice.
func (t *topology) close() {
	if t.pump != nil {
		_ = t.pump.Close()
		t.pump = nil
	} else if t.fan != nil {
		_ = t.fan.Close()
	}
	t.fan = nil
	if t.gw != nil {
		t.gw.Close()
		t.gw = nil
	}
	t.closeFleetLink()
	if t.fleetSrv != nil {
		_ = t.fleetSrv.Close()
		t.fleetSrv = nil
		<-t.served
	}
	if t.httpSrv != nil {
		_ = t.httpSrv.Close()
		t.httpSrv = nil
		<-t.served
		t.httpTrans.CloseIdleConnections()
	}
	_ = t.closeStore()
	if t.kind == topoDurable {
		_ = os.RemoveAll(t.stateDir)
	}
}
