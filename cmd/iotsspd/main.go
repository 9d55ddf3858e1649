// Command iotsspd runs the IoT Security Service as a standalone HTTP
// server, the deployment split of Fig 1: Security Gateways in home
// networks query this service for device-type identification and
// isolation-level decisions. Per Sect. III-B the service is stateless
// with respect to its clients.
//
// Usage:
//
//	iotsspd -listen :8477                      # train on the reference dataset
//	iotsspd -listen :8477 -model model.json    # serve a saved model
//	iotsspd -metrics-addr 127.0.0.1:9091       # also serve /metrics + pprof
//	iotsspd -state-dir ./state                 # serve what the last run served
//	iotsspd -fleet-listen :8478 -state-dir ./state
//	                                           # fleet control plane + canary rollouts
//
// With -state-dir the service boots from the state directory's serving
// bank, the one it served when it last stopped: a learned type, or a
// rollout's rollback baseline, survives a restart. -model, or training
// without it, is the cold-start source: it is used, and then stored as
// the serving bank, only when the state directory holds no valid bank.
//
// Endpoints (see internal/iotssp): POST /v1/assess takes one fingerprint
// as application/octet-stream — u16 rows, then rows × u64 packed
// features, big-endian, the block fleet batches and the journal carry —
// and answers a JSON verdict; any other content type is a 415, a
// malformed block a 400 naming the row. GET /v1/types lists the bank.
//
// With -fleet-listen, gateways running `gatewayd -fleet` register over
// a persistent binary-framed connection: they stream observed
// fingerprints up (replacing a per-fingerprint HTTP request for fleet
// members), heartbeat to keep their lease, and receive versioned model
// banks down. Combined with -learn, a locally promoted device-type
// becomes a rollout candidate: it canaries to a fraction of the fleet,
// auto-promotes fleet-wide when the canary unknown-rate holds, and
// auto-rolls back (including this daemon's own serving bank) on
// regression. With -state-dir the rollout state machine is journaled
// and resumes after a crash.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/node"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/store"
	"iotsentinel/internal/vulndb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iotsspd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iotsspd", flag.ContinueOnError)
	var (
		listen        = fs.String("listen", "127.0.0.1:8477", "listen address")
		modelFile     = fs.String("model", "", "saved identifier model to cold-start from (default: train on the reference dataset); with -state-dir, used only while the state dir holds no valid serving bank")
		captures      = fs.Int("captures", 20, "training captures per type when no model is given")
		seed          = fs.Int64("seed", 1, "random seed")
		assessTimeout = fs.Duration("assess-timeout", 30*time.Second, "server-side cap per assessment request (0 = unlimited); gateways retry 503s")
		metricsAddr   = fs.String("metrics-addr", "", "listen address for /metrics and /debug/pprof (default: disabled)")
		learnOn       = fs.Bool("learn", false, "learn new device-types online from clusters of unknown devices")
		learnK        = fs.Int("learn-k", learn.DefaultK, "unknown-cluster size that proposes a new device-type")
		fleetListen   = fs.String("fleet-listen", "", "listen address for the binary fleet protocol (default: disabled)")
		fleetLease    = fs.Duration("fleet-lease", fleet.DefaultLease, "gateway registration lease; any frame refreshes it")
		stateDir      = fs.String("state-dir", "", "directory for the serving model bank, the learner's and the rollout's journal, and the versioned model store (default: in-memory only)")
		canaryFrac    = fs.Float64("canary-fraction", 0.25, "fraction of the fleet that canaries a new model bank")
		canaryMin     = fs.Uint64("canary-min-samples", 20, "assessments each canary must report before a rollout is judged")
		canaryDelta   = fs.Float64("canary-max-unknown", 0.05, "max tolerated canary unknown-rate excess over the baseline before rollback")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := log.New(out, "", 0)

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	// /healthz + /readyz ride on the metrics listener: probes register
	// as subsystems come up.
	health := obs.NewHealth()

	// Durable state for the fleet control plane and the learner: the
	// serving bank, the rollout journal and the versioned model store
	// live here, so a restart serves what the last run served and a
	// crashed controller resumes mid-rollout.
	var st *node.State
	if *stateDir != "" {
		var err error
		if st, err = node.OpenState(*stateDir, reg, health, log); err != nil {
			return err
		}
		defer func() { _ = st.Store.Close() }()
	}

	id, _, err := node.BootBank(st.Models(), reg, func() (*core.Identifier, error) {
		if *modelFile != "" {
			return loadModel(*modelFile, log)
		}
		log.Printf("training on the reference dataset (%d captures x 27 types)...", *captures)
		return node.TrainBank(*captures, *seed)
	}, log)
	if err != nil {
		return err
	}
	svc := iotssp.New(id, vulndb.NewDefault())

	// Fleet control plane: registry + rollout controller + binary
	// protocol server. Streamed fingerprints flow through the same
	// Assess path (and unknown sink) as the HTTP API.
	var ctrl *fleet.Controller
	if *fleetListen != "" {
		var fm *fleet.Metrics
		if reg != nil {
			fm = fleet.NewMetrics(reg)
		}
		registry := fleet.NewRegistry(*fleetLease, fm)
		ccfg := fleet.ControllerConfig{
			Registry: registry,
			Policy: fleet.Policy{
				CanaryFraction:  *canaryFrac,
				MinSamples:      *canaryMin,
				MaxUnknownDelta: *canaryDelta,
			},
			// A rollback restores this daemon's own serving bank too:
			// the candidate was hot-swapped in at promotion time, and a
			// fleet that rejected it must not keep being served by it
			// centrally.
			OnRollback: func(sha string, model []byte) {
				if model == nil {
					return
				}
				if err := node.InstallModel(svc, st.Models(), model, log); err != nil {
					log.Printf("fleet: central bank rollback to %.12s failed: %v", sha, err)
					return
				}
				log.Printf("fleet: central bank reverted to %.12s after rollback", sha)
			},
			Metrics: fm,
			Logf:    log.Printf,
		}
		var rec *store.Recovery
		if st != nil {
			ccfg.Store, ccfg.Models, rec = st.Store, st.Models(), st.Rec
		}
		if ctrl, err = fleet.NewController(ccfg); err != nil {
			return err
		}

		// The live bank is the fleet's current version; newly
		// registering gateways converge onto it.
		var buf bytes.Buffer
		if err := svc.Identifier().Save(&buf); err != nil {
			return fmt.Errorf("serialize serving bank: %w", err)
		}
		sha, err := ctrl.SetCurrent(buf.Bytes())
		if err != nil {
			return fmt.Errorf("fleet: register serving bank: %w", err)
		}
		log.Printf("fleet: serving bank is model %.12s", sha)
		if rec != nil {
			if err := ctrl.Recover(rec); err != nil {
				return fmt.Errorf("fleet recover: %w", err)
			}
		}

		fsrv, err := fleet.NewServer(fleet.ServerConfig{
			Registry:   registry,
			Controller: ctrl,
			// One Assess per fingerprint: each gateway connection ingests
			// on its own goroutine, which is the parallelism a loaded
			// service has.
			Ingest: func(fps []fingerprint.Fingerprint) int {
				unknown := 0
				for _, fp := range fps {
					if a, err := svc.Assess(fp); err == nil && !a.Known {
						unknown++
					}
				}
				return unknown
			},
			Metrics: fm,
			Logf:    log.Printf,
		})
		if err != nil {
			return err
		}
		fln, err := net.Listen("tcp", *fleetListen)
		if err != nil {
			return fmt.Errorf("fleet listen: %w", err)
		}
		log.Printf("fleet control plane listening on %s (lease %s, canary %.0f%%)",
			fln.Addr(), *fleetLease, *canaryFrac*100)
		go func() { _ = fsrv.Serve(fln) }()
		defer func() { _ = fsrv.Close() }()
		// Non-critical: a gatewayless control plane is a quiet fleet,
		// not a broken service.
		health.Register("fleet", false, func() (obs.HealthStatus, string) {
			return obs.HealthOK, fmt.Sprintf("%d gateways registered", len(registry.IDs()))
		})
	}

	if *learnOn {
		// Unknown fingerprints feed the clusterer straight off the assess
		// path (HTTP and fleet-streamed alike); promoted types hot-swap
		// into the serving bank. With -fleet-listen each promotion also
		// becomes a canary rollout candidate for the gateway fleet; with
		// -state-dir clusters and promotions are journaled.
		cfg := learn.Config{K: *learnK}
		if reg != nil {
			cfg.Metrics = learn.NewMetrics(reg)
		}
		var rollout func(core.TypeID, []byte)
		if ctrl != nil {
			rollout = func(t core.TypeID, model []byte) {
				sha, err := ctrl.StartRollout(model)
				if err != nil {
					// Typically ErrRolloutInFlight: the next promotion
					// retries with an even newer bank.
					log.Printf("fleet: rollout of promoted type %q not started: %v", t, err)
					return
				}
				log.Printf("fleet: promoted type %q canarying as model %.12s", t, sha)
			}
		}
		l, err := node.NewLearner(svc, st, cfg, rollout, log)
		if err != nil {
			return err
		}
		defer l.Close()
	}

	var srvMetrics *iotssp.ServerMetrics
	if reg != nil {
		srvMetrics = iotssp.NewServerMetrics(reg)
		health.Register("serving_bank", true, func() (obs.HealthStatus, string) {
			return obs.HealthOK, fmt.Sprintf("%d device-types", svc.Identifier().NumTypes())
		})
		closeMetrics, err := node.ServeMetrics(*metricsAddr, reg, health, log)
		if err != nil {
			return err
		}
		defer closeMetrics()
	}

	handler := iotssp.HandlerWithMetrics(svc, srvMetrics)
	if *assessTimeout > 0 {
		// A wedged classification must not pin the connection forever:
		// the handler 503s at the cap and the gateway-side retry policy
		// takes over.
		handler = http.TimeoutHandler(handler, *assessTimeout, "assessment timed out")
	}
	return node.ServeUntilSignal("IoT Security Service", *listen, handler, log)
}

// loadModel reads a saved identifier (cmd/identify -save writes one).
func loadModel(path string, log *log.Logger) (*core.Identifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open model: %w", err)
	}
	defer f.Close()
	id, err := core.LoadIdentifier(f)
	if err != nil {
		return nil, err
	}
	log.Printf("loaded model with %d device-types", id.NumTypes())
	return id, nil
}
