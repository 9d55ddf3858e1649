// Command gatewayd runs the Security Gateway as a daemon: it replays
// device traffic (live deployments would bridge real interfaces),
// consults an IoT Security Service — in-process or remote over HTTP,
// the Fig 1 deployment split — and serves the management API.
//
// Usage:
//
//	gatewayd -api 127.0.0.1:8080                       # in-process IoTSSP
//	gatewayd -api 127.0.0.1:8080 -ssp http://host:8477 # remote IoTSSP
//	gatewayd -replay ./dataset -api 127.0.0.1:8080     # replay pcaps, then serve
//	gatewayd -metrics-addr 127.0.0.1:9090              # also serve /metrics + pprof
//	gatewayd -state-dir /var/lib/gatewayd              # durable state + warm boot
//	gatewayd -fleet host:8478 -fleet-id gw-kitchen     # join an iotsspd fleet
//
// With -fleet, the gateway keeps its fast in-process service but joins
// an iotsspd fleet over a persistent binary-framed link: observed
// fingerprints stream up for central aggregation and learning,
// heartbeats keep the registration lease alive, and versioned model
// banks pushed down (including canary rollout candidates) hot-swap
// into the local service without dropping a packet. The link is
// managed by a fleet.Session: it auto-reconnects under jittered
// backoff, spools un-acked fingerprint batches across disconnects and
// replays them after the re-handshake, and surfaces Degraded through
// /healthz — the local bank keeps serving fail-closed either way.
//
// With -metrics-addr, the metrics listener also serves /healthz
// (liveness + per-subsystem report) and /readyz (503 until every
// critical subsystem — the durable store — is healthy).
//
// With -state-dir, device lifecycle state is journaled and the trained
// model bank is persisted: a restart recovers every device, its
// quarantine entry, and its enforcement rule from disk (milliseconds)
// instead of retraining and re-capturing. SIGHUP revalidates and
// hot-reloads the model bank from the state dir; SIGTERM/^C drains the
// assessment pipeline and checkpoints before exiting.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
	"iotsentinel/internal/vulndb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gatewayd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gatewayd", flag.ContinueOnError)
	var (
		apiAddr       = fs.String("api", "127.0.0.1:8080", "management API listen address")
		sspURL        = fs.String("ssp", "", "remote IoT Security Service base URL (default: in-process)")
		replayDir     = fs.String("replay", "", "directory of pcap captures to replay on startup")
		capReaders    = fs.Int("capture-readers", 0, "capture reader goroutines feeding the data path (0 = GOMAXPROCS)")
		captures      = fs.Int("captures", 20, "training captures per type for the in-process service")
		seed          = fs.Int64("seed", 1, "random seed")
		workers       = fs.Int("workers", 0, "goroutines for training and batch assessment (0 = GOMAXPROCS); one identification never fans out")
		oneshot       = fs.Bool("oneshot", false, "exit after replay instead of serving the API")
		assessTimeout = fs.Duration("assess-timeout", 10*time.Second, "per-attempt timeout for remote IoTSSP calls")
		assessRetries = fs.Int("assess-retries", 3, "additional attempts after a failed remote IoTSSP call")
		retryPeriod   = fs.Duration("retry-period", 5*time.Second, "how often quarantined devices are re-assessed")
		metricsAddr   = fs.String("metrics-addr", "", "listen address for /metrics and /debug/pprof (default: disabled)")
		shards        = fs.Int("shards", gateway.DefaultShards, "device-state shards (rounded up to a power of two)")
		cacheSize     = fs.Int("cache-size", core.DefaultCacheSize, "identification-cache entries for the in-process service (0 = disabled)")
		stateDir      = fs.String("state-dir", "", "directory for the durable journal, snapshots, and model store (default: in-memory only)")
		learnOn       = fs.Bool("learn", false, "learn new device-types online from clusters of unknown devices (in-process service only)")
		learnK        = fs.Int("learn-k", learn.DefaultK, "unknown-cluster size that proposes a new device-type")
		fleetAddr     = fs.String("fleet", "", "iotsspd fleet address (host:port); stream fingerprints up, receive model banks down (in-process service only)")
		fleetID       = fs.String("fleet-id", "", "stable gateway identity in the fleet (default: hostname)")
		fleetSpool    = fs.Int("fleet-spool", fleet.DefaultSpoolBatches, "un-acked fingerprint batches retained for replay across fleet-link drops")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var reg *obs.Registry
	var gwMetrics *gateway.Metrics
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		gwMetrics = gateway.NewMetrics(reg)
	}

	// Health probes accumulate as subsystems come up; the registry is
	// served next to /metrics once the daemon reaches serving mode.
	health := obs.NewHealth()
	var hs healthState

	// Durable state: open (and recover) before anything else so a torn
	// journal is discovered — and truncated — before new events append.
	var st *store.Store
	var rec *store.Recovery
	if *stateDir != "" {
		var stMetrics *store.Metrics
		if reg != nil {
			stMetrics = store.NewMetrics(reg)
		}
		var err error
		st, rec, err = store.Open(*stateDir, store.Options{
			Metrics: stMetrics,
			Logf:    func(format string, a ...any) { fmt.Fprintf(out, "state: "+format+"\n", a...) },
		})
		if err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		if rec.Degraded {
			hs.storeErr.Store("recovery was degraded; fail-closed sweep applied")
		}
		health.Register("store", true, hs.storeProbe)
	}

	assessor, svc, breaker, err := buildAssessor(out, reg, st, *sspURL, *captures, *seed, *workers, *cacheSize, *assessTimeout, *assessRetries)
	if err != nil {
		return err
	}
	if breaker != nil {
		hs.breaker = breaker
		health.Register("assessor_breaker", false, hs.breakerProbe)
	}

	// Online learning: unknown fingerprints flow from the gateway's
	// assessment path into the clusterer; promoted types hot-swap into
	// the in-process service and persist to the model store.
	learner, err := buildLearner(out, reg, st, svc, *learnOn, *learnK)
	if err != nil {
		return err
	}
	if learner != nil {
		defer learner.Close()
	}

	// Fleet link: register with the central iotsspd, stream observed
	// fingerprints up the persistent connection, and hot-swap model
	// banks pushed down into the local service. The assessor wrapper
	// keeps the fast local path — the link only adds telemetry. The
	// managed session reconnects under backoff and spools un-acked
	// batches across drops; a fleet that is down at boot just means
	// the link starts Degraded and keeps dialing.
	if *fleetAddr != "" {
		if svc == nil {
			return fmt.Errorf("-fleet requires the in-process service (remove -ssp)")
		}
		gwID := *fleetID
		if gwID == "" {
			h, err := os.Hostname()
			if err != nil || h == "" {
				return fmt.Errorf("-fleet-id required (hostname unavailable: %v)", err)
			}
			gwID = h
		}
		var linkMetrics *fleet.Metrics
		if reg != nil {
			linkMetrics = fleet.NewLinkMetrics(reg)
		}
		session, err := fleet.NewSession(fleet.SessionConfig{
			Client: fleet.ClientConfig{
				Addr:      *fleetAddr,
				GatewayID: gwID,
				ApplyModel: func(sha string, model []byte) error {
					if err := applyFleetModel(svc, model, *workers, *cacheSize); err != nil {
						return err
					}
					if st != nil {
						// Persist the adopted bank so the next boot serves
						// the fleet version warm (best effort: the fleet
						// re-pushes on the next connect either way).
						if _, err := st.Models().Save(svc.Identifier()); err != nil {
							fmt.Fprintf(out, "fleet: persist pushed model %.12s: %v\n", sha, err)
						}
					}
					fmt.Fprintf(out, "fleet: hot-swapped pushed model %.12s\n", sha)
					return nil
				},
				FlushInterval: time.Second,
				Logf:          func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) },
			},
			Retry:        iotssp.RetryPolicy{Seed: uint64(*seed)},
			SpoolBatches: *fleetSpool,
			Metrics:      linkMetrics,
			OnState: func(state fleet.SessionState) {
				hs.fleetState.Store(int32(state))
				fmt.Fprintf(out, "fleet: link %s\n", state)
			},
		})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		defer session.Close()
		hs.session = session
		health.Register("fleet_link", false, hs.fleetProbe)
		assessor = &fleetAssessor{inner: svc, cl: session}
		fmt.Fprintf(out, "fleet: linked to %s as %q (auto-reconnect, spool %d batches)\n", *fleetAddr, gwID, *fleetSpool)
	}

	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, mustPrefix())
	sw := sdn.NewSwitch(ctrl, 30*time.Second)
	if reg != nil {
		sw.SetMetrics(sdn.NewSwitchMetrics(reg))
	}
	gwCfg := gateway.Config{
		Shards:  *shards,
		Metrics: gwMetrics,
		Store:   st,
		OnStoreError: func(err error) {
			hs.storeErr.Store("journal: " + err.Error())
			fmt.Fprintf(os.Stderr, "gatewayd: state journal: %v\n", err)
		},
		OnAssessed: func(d gateway.DeviceInfo) {
			fmt.Fprintf(out, "assessed %v as %q -> %s\n", d.MAC, orUnknown(string(d.Type)), d.Level)
		},
		OnNotify: func(n gateway.Notification) {
			fmt.Fprintf(out, "USER ALERT: %s\n", n.Message)
		},
		OnQuarantined: func(d gateway.DeviceInfo, cause error) {
			fmt.Fprintf(out, "quarantined %v (strict, attempt %d): %v\n", d.MAC, d.AssessAttempts, cause)
		},
	}
	if learner != nil {
		gwCfg.OnUnknown = func(_ gateway.DeviceInfo, fp fingerprint.Fingerprint) { learner.Observe(fp) }
		gwCfg.LearnState = learner.SnapshotState
	}
	gw := gateway.New(assessor, sw, gwCfg)
	if st != nil {
		stats, err := gw.Recover(rec, time.Now())
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		fmt.Fprintf(out, "state: recovered %s\n", stats)
		if learner != nil {
			lstats, err := learner.Recover(rec)
			if err != nil {
				return fmt.Errorf("learn recover: %w", err)
			}
			fmt.Fprintf(out, "learn: recovered %s\n", lstats)
		}
		// Graceful teardown, registered before the workers so it runs
		// after their deferred Shutdowns: drain the assessment pipeline,
		// checkpoint, close the journal.
		defer func() {
			if err := gw.Shutdown(); err != nil {
				fmt.Fprintf(os.Stderr, "gatewayd: checkpoint: %v\n", err)
			}
			if err := st.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "gatewayd: state close: %v\n", err)
				return
			}
			fmt.Fprintln(out, "state: checkpointed, clean shutdown")
		}()
	}

	// SIGHUP: revalidate the on-disk model bank (checksum + structural
	// load) and swap it in without dropping a packet. A bad model on
	// disk is reported and the running bank stays.
	if st != nil && svc != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := reloadModel(out, st, svc, *workers, *cacheSize); err != nil {
					fmt.Fprintf(out, "state: model reload rejected, keeping current bank: %v\n", err)
				}
			}
		}()
	}

	if *replayDir != "" {
		var capMetrics *capture.Metrics
		if reg != nil {
			capMetrics = capture.NewMetrics(reg)
		}
		drops, err := replay(out, gw, *replayDir, *capReaders, capMetrics)
		if err != nil {
			return err
		}
		hs.captureDrops.Store(drops)
		health.Register("capture", false, hs.captureProbe)
		if learner != nil {
			// Let replay-triggered clustering and promotions settle so a
			// -oneshot exit (and its checkpoint) captures what the replay
			// taught us.
			learner.Wait()
		}
	}
	if *oneshot {
		return nil
	}

	if reg != nil {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen: %w", err)
		}
		msrv := &http.Server{Handler: metricsMux(reg, health), ReadHeaderTimeout: 10 * time.Second}
		fmt.Fprintf(out, "metrics listening on http://%s/metrics (plus /healthz, /readyz)\n", mln.Addr())
		go func() { _ = msrv.Serve(mln) }()
		defer func() { _ = msrv.Close() }()
	}

	// Housekeeping workers: flow-table sweep + idle-capture finalizer,
	// and the quarantine drain that promotes devices once the IoTSSP
	// recovers.
	expiry := gateway.NewExpiryWorker(gw, 5*time.Second)
	defer expiry.Shutdown()
	retry := gateway.NewRetryWorker(gw, *retryPeriod)
	defer retry.Shutdown()

	ln, err := net.Listen("tcp", *apiAddr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: gw.APIHandler(nil), ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(out, "management API listening on %s\n", ln.Addr())

	// SIGTERM is what init systems and container runtimes send; treat it
	// like ^C so the deferred drain + checkpoint above runs instead of
	// the process dying with a dirty journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// buildAssessor wires either the HTTP client for a remote service or an
// in-process service trained on the reference dataset. The remote
// client gets the full fault-tolerance stack: per-attempt timeout,
// bounded retries with backoff, and a circuit breaker so a down service
// fails fast instead of stalling the data path. With a state store, the
// in-process path warm-boots from the persisted model bank (validated
// before use) and falls back to training — then persists the result so
// the next boot is warm. The returned *Service is nil for the remote
// client (there is no local bank to hot-reload), and the breaker is
// nil for the in-process path (there is no remote call to break).
func buildAssessor(out io.Writer, reg *obs.Registry, st *store.Store, sspURL string, captures int, seed int64, workers, cacheSize int,
	assessTimeout time.Duration, assessRetries int) (iotssp.Assessor, *iotssp.Service, *iotssp.CircuitBreaker, error) {
	if sspURL != "" {
		fmt.Fprintf(out, "using remote IoT Security Service at %s\n", sspURL)
		if assessRetries < 0 {
			assessRetries = 0
		}
		breaker := iotssp.NewCircuitBreaker(0, 0, nil)
		client := &iotssp.Client{
			BaseURL: strings.TrimRight(sspURL, "/"),
			Timeout: assessTimeout,
			Retry:   iotssp.RetryPolicy{MaxAttempts: assessRetries + 1, Seed: uint64(seed)},
			Breaker: breaker,
		}
		if reg != nil {
			client.Metrics = iotssp.NewClientMetrics(reg)
			client.Metrics.ObserveBreaker(breaker)
		}
		return client, nil, breaker, nil
	}

	id, err := loadOrTrain(out, st, captures, seed, workers, cacheSize)
	if err != nil {
		return nil, nil, nil, err
	}
	if reg != nil {
		id.SetMetrics(core.NewMetrics(reg))
	}
	svc := iotssp.New(id, vulndb.NewDefault())
	return svc, svc, nil, nil
}

// loadOrTrain is the warm-boot path: a valid persisted model loads in
// milliseconds; anything else (cold start, checksum mismatch, stale
// format) falls back to training and re-persists. Either way the
// runtime knobs — worker pool and identification cache — are applied
// to the bank that will serve: they are deployment configuration, not
// model state, so the persisted form deliberately does not carry them
// and every load site must re-apply them.
func loadOrTrain(out io.Writer, st *store.Store, captures int, seed int64, workers, cacheSize int) (*core.Identifier, error) {
	var ms *store.ModelStore
	if st != nil {
		ms = st.Models()
		if ms.Exists() {
			start := time.Now()
			id, man, err := ms.Load()
			if err == nil {
				if err := id.ApplyRuntime(workers, cacheSize); err != nil {
					return nil, err
				}
				fmt.Fprintf(out, "state: loaded model bank from disk in %v (%d types, sha256 %.8s)\n",
					time.Since(start).Round(time.Millisecond), man.Types, man.SHA256)
				return id, nil
			}
			fmt.Fprintf(out, "state: persisted model rejected (%v), retraining\n", err)
		}
	}
	fmt.Fprintf(out, "training in-process IoT Security Service (%d captures x 27 types)...\n", captures)
	raw := devices.GenerateDataset(captures, seed)
	ds := make(map[core.TypeID][]fingerprint.Fingerprint, len(raw))
	for k, v := range raw {
		ds[core.TypeID(k)] = v
	}
	id, err := core.Train(ds, core.Config{Seed: seed, Workers: workers, CacheSize: cacheSize})
	if err != nil {
		return nil, err
	}
	if ms != nil {
		ms.LoadedFromTraining()
		if man, err := ms.Save(id); err != nil {
			fmt.Fprintf(out, "state: could not persist model bank: %v\n", err)
		} else {
			fmt.Fprintf(out, "state: persisted model bank (sha256 %.8s); next boot is warm\n", man.SHA256)
		}
	}
	return id, nil
}

// reloadModel is the SIGHUP hot-reload path: revalidate the on-disk
// bank (checksum + structural load), re-apply the runtime knobs — the
// persisted form carries no worker pool and no cache, so skipping this
// would silently swap in an uncached single-threaded bank — and swap
// it into the service. The cache attached here is fresh and empty:
// entries from the outgoing bank must not answer for the new one.
func reloadModel(out io.Writer, st *store.Store, svc *iotssp.Service, workers, cacheSize int) error {
	id, man, err := st.Models().Load()
	if err != nil {
		return err
	}
	if err := id.ApplyRuntime(workers, cacheSize); err != nil {
		return err
	}
	// Carry the outgoing bank's metrics bundle: counter series must
	// continue across the swap, not silently stop.
	id.SetMetrics(svc.Identifier().Metrics())
	if err := svc.ReplaceIdentifier(id); err != nil {
		return err
	}
	fmt.Fprintf(out, "state: model bank hot-reloaded (%d types, sha256 %.8s)\n", man.Types, man.SHA256)
	return nil
}

// buildLearner wires the online-learning subsystem when -learn is set:
// promotions train on a clone of the serving bank and hot-swap through
// the service, the journal records cluster growth, and the model store
// persists each promoted bank so the next boot serves the learned
// types warm.
func buildLearner(out io.Writer, reg *obs.Registry, st *store.Store, svc *iotssp.Service, enabled bool, k int) (*learn.Learner, error) {
	if !enabled {
		return nil, nil
	}
	if svc == nil {
		return nil, fmt.Errorf("-learn requires the in-process service (remove -ssp)")
	}
	cfg := learn.Config{
		K: k,
		Promote: func(t core.TypeID, fps []fingerprint.Fingerprint) (*core.Identifier, error) {
			return svc.PromoteType(t, fps, iotssp.PromoteOptions{})
		},
		Known: svc.HasType,
		Store: st,
		Logf:  func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) },
	}
	if reg != nil {
		cfg.Metrics = learn.NewMetrics(reg)
	}
	if st != nil {
		ms := st.Models()
		cfg.Persist = func(id *core.Identifier) error {
			_, err := ms.Save(id)
			return err
		}
	}
	l, err := learn.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "learn: online device-type learning enabled (k=%d)\n", cfg.K)
	return l, nil
}

// fleetAssessor decorates the in-process service with the fleet link:
// every assessment bumps the cumulative counters canary rollouts are
// judged by, and every assessed fingerprint streams to the central
// service. Streaming is fire-and-forget — a Degraded link spools the
// observations for replay and never fails a local assessment.
type fleetAssessor struct {
	inner *iotssp.Service
	cl    *fleet.Session
}

func (fa *fleetAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	a, err := fa.inner.Assess(fp)
	if err == nil {
		fa.cl.RecordAssessment(!a.Known)
		_ = fa.cl.Observe(fp)
	}
	return a, err
}

func (fa *fleetAssessor) AssessBatch(fps []fingerprint.Fingerprint) ([]iotssp.Assessment, error) {
	as, err := fa.inner.AssessBatch(fps)
	if err == nil {
		for i, a := range as {
			fa.cl.RecordAssessment(!a.Known)
			_ = fa.cl.Observe(fps[i])
		}
	}
	return as, err
}

// applyFleetModel deserializes a pushed model blob, re-applies the
// runtime knobs the wire form deliberately does not carry, carries the
// outgoing bank's metrics bundle forward, and swaps it in through the
// service's validated hot-swap path — the same sequence as the SIGHUP
// reload, with the bytes arriving over the fleet link instead of from
// disk.
func applyFleetModel(svc *iotssp.Service, model []byte, workers, cacheSize int) error {
	id, err := core.LoadIdentifier(bytes.NewReader(model))
	if err != nil {
		return err
	}
	if err := id.ApplyRuntime(workers, cacheSize); err != nil {
		return err
	}
	id.SetMetrics(svc.Identifier().Metrics())
	return svc.ReplaceIdentifier(id)
}

// metricsMux serves the observability endpoints: Prometheus-text
// /metrics, /healthz + /readyz, plus the standard pprof handlers, on
// their own listener so operational traffic never mixes with the
// management API.
func metricsMux(reg *obs.Registry, health *obs.Health) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/healthz", health.LiveHandler())
	mux.Handle("/readyz", health.ReadyHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthState is what the /healthz probes read: cheap atomics updated
// from the subsystems' own callbacks, never a blocking call.
type healthState struct {
	storeErr     atomic.Value // string: last journal error or recovery degradation
	session      *fleet.Session
	fleetState   atomic.Int32
	breaker      *iotssp.CircuitBreaker
	captureDrops atomic.Uint64
}

// storeProbe: the durable store is the one critical subsystem — a
// degraded journal means recovered state may be incomplete, and the
// fail-closed posture wants traffic routed elsewhere.
func (hs *healthState) storeProbe() (obs.HealthStatus, string) {
	if msg, _ := hs.storeErr.Load().(string); msg != "" {
		return obs.HealthDegraded, msg
	}
	return obs.HealthOK, ""
}

// fleetProbe is deliberately non-critical: a Degraded link spools and
// redials while local serving continues fail-closed, so it must not
// pull the gateway out of rotation.
func (hs *healthState) fleetProbe() (obs.HealthStatus, string) {
	stats := hs.session.Stats()
	detail := fmt.Sprintf("reconnects %d, spool %d batches, dropped %d fingerprints",
		stats.Reconnects, stats.SpoolDepth, stats.SpoolDropped)
	if fleet.SessionState(hs.fleetState.Load()) != fleet.SessionConnected {
		return obs.HealthDegraded, detail
	}
	return obs.HealthOK, detail
}

func (hs *healthState) breakerProbe() (obs.HealthStatus, string) {
	state := hs.breaker.State()
	if state != iotssp.BreakerClosed {
		return obs.HealthDegraded, "circuit breaker " + state.String()
	}
	return obs.HealthOK, ""
}

func (hs *healthState) captureProbe() (obs.HealthStatus, string) {
	if drops := hs.captureDrops.Load(); drops > 0 {
		return obs.HealthDegraded, fmt.Sprintf("%d frames shed during replay", drops)
	}
	return obs.HealthOK, ""
}

// replay streams every pcap in dir through the capture front end —
// demux, MAC-hash fanout, per-CPU readers — into the gateway's data
// path, then force-finishes any still-monitoring devices. This is the
// same ingest pipeline a live interface feeds, just sourced from
// disk. Returns how many frames the ring fanout shed (slow-consumer
// drops, surfaced through the capture health probe).
func replay(out io.Writer, gw *gateway.Gateway, dir string, readers int, cm *capture.Metrics) (uint64, error) {
	src, err := capture.NewDirSource(dir)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	var (
		mu     sync.Mutex
		frames int
		last   time.Time
		hpErr  error
	)
	pump := capture.Start(src, func(ts time.Time, pk *packet.Packet) {
		if _, err := gw.HandlePacket(ts, pk); err != nil {
			mu.Lock()
			if hpErr == nil {
				hpErr = err
			}
			mu.Unlock()
			return
		}
		mu.Lock()
		frames++
		if ts.After(last) {
			last = ts
		}
		mu.Unlock()
	}, capture.PumpConfig{Readers: readers, Metrics: cm})
	if err := pump.Wait(); err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	drops := pump.Fanout().Drops()
	if hpErr != nil {
		return drops, fmt.Errorf("replay: %w", hpErr)
	}
	// Any devices still monitoring saw their whole capture: drain the
	// monitoring queue as one batch so the pending fingerprints
	// pipeline through the classifier bank's worker pool.
	if _, err := gw.FinishAllSetups(last.Add(time.Minute)); err != nil {
		return drops, fmt.Errorf("replay finish: %w", err)
	}
	quarantined := gw.QuarantineLen()
	fmt.Fprintf(out, "replayed %d frames from %d captures; %d devices assessed, %d quarantined\n",
		frames, src.Files(), len(gw.Devices())-quarantined, quarantined)
	return drops, nil
}

func mustPrefix() netip.Prefix {
	return netip.MustParsePrefix("192.168.0.0/16")
}

func orUnknown(s string) string {
	if s == "" {
		return "UNKNOWN"
	}
	return s
}
