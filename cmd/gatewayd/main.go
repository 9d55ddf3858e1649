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
// into the local service without dropping a packet. The link is a
// fleet.Session: it auto-reconnects under jittered backoff, keeps
// un-acked fingerprint batches spooled across disconnects and writes
// them again after the re-handshake, and surfaces Degraded through
// /healthz — the local bank keeps serving fail-closed either way.
//
// With -metrics-addr, the metrics listener also serves /healthz
// (liveness + per-subsystem report) and /readyz (503 until every
// critical subsystem — the durable store — is healthy).
//
// With -state-dir, device lifecycle state is journaled and the serving
// model bank is stored — the trained one, a learned one, or one the
// fleet pushed, byte for byte: a restart serves that bank and recovers
// every device, its quarantine entry, and its enforcement rule from
// disk (milliseconds) instead of retraining and re-capturing, and its
// fleet hello names the bank, so a fleet already on it pushes nothing.
// SIGHUP revalidates and hot-reloads the serving bank from the state
// dir; SIGTERM/^C drains the assessment pipeline and checkpoints before
// exiting.
//
// The gateway itself is assembled by internal/node, the way bench/
// measures it and the soak gates it: finished captures are identified
// off the packet path, on per-shard queues, so a slow or hung -ssp call
// parks nothing but its own queue.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/core"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/node"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
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
		captures      = fs.Int("captures", 20, "training captures per type for the in-process service")
		seed          = fs.Int64("seed", 1, "random seed")
		oneshot       = fs.Bool("oneshot", false, "exit after replay instead of serving the API")
		assessTimeout = fs.Duration("assess-timeout", 10*time.Second, "per-attempt timeout for remote IoTSSP calls")
		assessRetries = fs.Int("assess-retries", 3, "additional attempts after a failed remote IoTSSP call")
		retryPeriod   = fs.Duration("retry-period", 5*time.Second, "how often quarantined devices are re-assessed")
		metricsAddr   = fs.String("metrics-addr", "", "listen address for /metrics and /debug/pprof (default: disabled)")
		stateDir      = fs.String("state-dir", "", "directory for the durable journal, snapshots, and the serving model bank (default: in-memory only)")
		learnOn       = fs.Bool("learn", false, "learn new device-types online from clusters of unknown devices (in-process service only)")
		learnK        = fs.Int("learn-k", learn.DefaultK, "unknown-cluster size that proposes a new device-type")
		fleetAddr     = fs.String("fleet", "", "iotsspd fleet address (host:port); stream fingerprints up, receive model banks down (in-process service only)")
		fleetID       = fs.String("fleet-id", "", "stable gateway identity in the fleet (default: hostname)")
		fleetSpool    = fs.Int("fleet-spool", fleet.DefaultSpoolBatches, "un-acked fingerprint batches retained for replay across fleet-link drops")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := log.New(out, "", 0)

	// reg stays nil without -metrics-addr, and every bundle below with it.
	var reg *obs.Registry
	var gwMetrics *gateway.Metrics
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		gwMetrics = gateway.NewMetrics(reg)
	}

	// Health probes accumulate as subsystems come up; the registry is
	// served next to /metrics once the daemon reaches serving mode.
	health := obs.NewHealth()

	var st *node.State
	if *stateDir != "" {
		var err error
		if st, err = node.OpenState(*stateDir, reg, health, log); err != nil {
			return err
		}
	}

	// The assessor is either the HTTP client for a remote service or an
	// in-process service over the booted bank; svc stays nil for the
	// remote client (there is no local bank to learn into or hot-swap).
	var assessor iotssp.Assessor
	var svc *iotssp.Service
	var bootSHA string // the model store's SHA-256 of the booted bank; "" when not persisted
	if *sspURL != "" {
		client := remoteClient(*sspURL, *seed, *assessTimeout, *assessRetries, reg)
		log.Printf("using remote IoT Security Service at %s", *sspURL)
		health.Register("assessor_breaker", false, func() (obs.HealthStatus, string) {
			if state := client.Breaker.State(); state != iotssp.BreakerClosed {
				return obs.HealthDegraded, "circuit breaker " + state.String()
			}
			return obs.HealthOK, ""
		})
		assessor = client
	} else {
		id, sha, err := node.BootBank(st.Models(), reg, func() (*core.Identifier, error) {
			log.Printf("training in-process IoT Security Service (%d captures x 27 types)...", *captures)
			return node.TrainBank(*captures, *seed)
		}, log)
		if err != nil {
			return err
		}
		svc = iotssp.New(id, vulndb.NewDefault())
		assessor = svc
		bootSHA = sha
	}

	// Online learning: fingerprints the in-process service finds unknown
	// flow into the clusterer; promoted types hot-swap into the service
	// and become the model store's serving bank.
	var learner *learn.Learner
	if *learnOn {
		if svc == nil {
			return fmt.Errorf("-learn requires the in-process service (remove -ssp)")
		}
		cfg := learn.Config{K: *learnK}
		if reg != nil {
			cfg.Metrics = learn.NewMetrics(reg)
		}
		var err error
		if learner, err = node.NewLearner(svc, st, cfg, nil, log); err != nil {
			return err
		}
		defer learner.Close()
	}

	// Fleet link: register with the central iotsspd, stream observed
	// fingerprints up the persistent connection, and install the model
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
				// The hello names the bank this gateway already serves, so a
				// fleet on that version pushes nothing.
				ModelSHA: bootSHA,
				ApplyModel: func(sha string, model []byte) error {
					if err := node.InstallModel(svc, st.Models(), model, log); err != nil {
						return err
					}
					log.Printf("fleet: hot-swapped pushed model %.12s", sha)
					return nil
				},
				FlushInterval: time.Second,
				Logf:          log.Printf,
			},
			Retry:        iotssp.RetryPolicy{Seed: uint64(*seed)},
			SpoolBatches: *fleetSpool,
			Metrics:      linkMetrics,
			OnState:      func(state fleet.SessionState) { log.Printf("fleet: link %s", state) },
		})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		defer session.Close()
		// Deliberately non-critical: a Degraded link spools and redials
		// while local serving continues fail-closed, so it must not pull
		// the gateway out of rotation.
		health.Register("fleet_link", false, func() (obs.HealthStatus, string) {
			stats := session.Stats()
			detail := fmt.Sprintf("reconnects %d, spool %d batches, dropped %d fingerprints",
				stats.Reconnects, stats.SpoolDepth, stats.SpoolDropped)
			if session.State() != fleet.SessionConnected {
				return obs.HealthDegraded, detail
			}
			return obs.HealthOK, detail
		})
		assessor = &node.FleetAssessor{Service: svc, Link: session}
		log.Printf("fleet: linked to %s as %q (auto-reconnect, spool %d batches)", *fleetAddr, gwID, *fleetSpool)
	}

	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.MustParsePrefix("192.168.0.0/16"))
	sw := sdn.NewSwitch(ctrl, 30*time.Second)
	if reg != nil {
		sw.SetMetrics(sdn.NewSwitchMetrics(reg))
	}
	gw := gateway.New(assessor, sw, node.GatewayConfig(gateway.Config{
		Metrics: gwMetrics,
		OnAssessed: func(d gateway.DeviceInfo) {
			log.Printf("assessed %v as %q -> %s", d.MAC, orUnknown(string(d.Type)), d.Level)
		},
		OnNotify: func(n gateway.Notification) {
			log.Printf("USER ALERT: %s", n.Message)
		},
		OnQuarantined: func(d gateway.DeviceInfo, cause error) {
			log.Printf("quarantined %v (strict, attempt %d): %v", d.MAC, d.AssessAttempts, cause)
		},
	}, st, learner, log))
	if st != nil {
		stats, err := gw.Recover(st.Rec, time.Now())
		if err != nil {
			gw.Close() // and no checkpoint: what is on disk is all there is
			return fmt.Errorf("recover: %w", err)
		}
		log.Printf("state: recovered %s", stats)
	}
	// Graceful teardown, registered before the workers so it runs after
	// their deferred Shutdowns: drain the assessment pipeline and stop
	// its goroutines; with a state dir, checkpoint and close the journal.
	defer func() {
		if err := gw.Shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "gatewayd: checkpoint: %v\n", err)
		}
		if st == nil {
			return
		}
		if err := st.Store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gatewayd: state close: %v\n", err)
			return
		}
		log.Printf("state: checkpointed, clean shutdown")
	}()

	// SIGHUP: revalidate the on-disk model bank (checksum + structural
	// load) and install it without dropping a packet. A bad model on
	// disk is reported and the running bank stays.
	if st != nil && svc != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		reloads := make(chan struct{})
		go func() {
			defer close(reloads)
			for range hup {
				id, sha, err := st.Models().Load()
				if err == nil {
					err = svc.Install(id)
				}
				if err != nil {
					log.Printf("state: model reload rejected, keeping current bank: %v", err)
					continue
				}
				log.Printf("state: model bank hot-reloaded (%d types, sha256 %.8s)", id.NumTypes(), sha)
			}
		}()
		defer func() {
			signal.Stop(hup) // no send can follow, so the close is safe
			close(hup)
			<-reloads
		}()
	}

	if *replayDir != "" {
		var capMetrics *capture.Metrics
		if reg != nil {
			capMetrics = capture.NewMetrics(reg)
		}
		if err := replay(log, gw, *replayDir, capMetrics); err != nil {
			return err
		}
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
		closeMetrics, err := node.ServeMetrics(*metricsAddr, reg, health, log)
		if err != nil {
			return err
		}
		defer closeMetrics()
	}

	// Housekeeping workers: flow-table sweep + idle-capture finalizer,
	// the quarantine drain that promotes devices once the IoTSSP
	// recovers (or the assess queue's backlog clears), and the periodic
	// checkpoint that keeps the journal short (idle without -state-dir).
	expiry := gateway.NewExpiryWorker(gw, 5*time.Second)
	defer expiry.Shutdown()
	retry := gateway.NewRetryWorker(gw, *retryPeriod)
	defer retry.Shutdown()
	checkpoint := gateway.NewCheckpointWorker(gw, node.CheckpointEvery)
	defer checkpoint.Shutdown()

	return node.ServeUntilSignal("management API", *apiAddr, gw.APIHandler(nil), log)
}

// remoteClient builds the HTTP client for a remote service with the
// full fault-tolerance stack: per-attempt timeout, bounded retries with
// backoff, and a circuit breaker so a down service fails fast instead of
// holding an assess queue for the whole retry budget.
func remoteClient(sspURL string, seed int64, timeout time.Duration, retries int, reg *obs.Registry) *iotssp.Client {
	if retries < 0 {
		retries = 0
	}
	client := &iotssp.Client{
		BaseURL: strings.TrimRight(sspURL, "/"),
		Timeout: timeout,
		Retry:   iotssp.RetryPolicy{MaxAttempts: retries + 1, Seed: uint64(seed)},
		Breaker: iotssp.NewCircuitBreaker(0, 0, nil),
	}
	if reg != nil {
		client.Metrics = iotssp.NewClientMetrics(reg)
		client.Metrics.ObserveBreaker(client.Breaker)
	}
	return client
}

// replay plays every *.pcap / *.pcapng in dir, in name order, through
// the capture front end — MAC-hash fanout, per-CPU readers — into the
// gateway's data path, then force-finishes any still-monitoring
// devices. This is the same ingest pipeline a live interface feeds,
// just sourced from disk.
func replay(log *log.Logger, gw *gateway.Gateway, dir string, cm *capture.Metrics) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pcap") || strings.HasSuffix(e.Name(), ".pcapng") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("replay: no pcap files under %s", dir)
	}
	var (
		once  sync.Once
		hpErr error
	)
	frames, last, err := capture.Replay(paths, func(ts time.Time, pk *packet.Packet) {
		if _, err := gw.HandlePacket(ts, pk); err != nil {
			once.Do(func() { hpErr = err })
		}
	}, cm)
	if err == nil {
		err = hpErr
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	// Captures that completed mid-replay are on the assess queues: let
	// them land before sweeping up, and before counting, what is left.
	gw.WaitAssessIdle()
	// Any devices still monitoring saw their whole capture: finish each
	// one the way the expiry worker finishes an idle capture.
	gw.FinishAllSetups(last.Add(time.Minute))
	quarantined := gw.QuarantineLen()
	log.Printf("replayed %d frames from %d captures; %d devices assessed, %d quarantined",
		frames, len(paths), len(gw.Devices())-quarantined, quarantined)
	return nil
}

func orUnknown(s string) string {
	if s == "" {
		return "UNKNOWN"
	}
	return s
}
