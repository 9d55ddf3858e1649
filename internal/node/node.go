// Package node is the one assembly of the paper's two components — a
// Security Gateway and an IoT Security Service (Sect. III) — out of the
// internal packages: what cmd/gatewayd, cmd/iotsspd and the soak
// (cmd/loadgen) each used to wire by hand. Every function here has at
// least two of those three as callers, so a daemon and the harness that
// gates it cannot drift apart, and the gateway they build is the one
// bench/ measures: gateway.DefaultShards shards and a per-shard assess
// queue of gateway.DefaultAssessQueue.
package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/store"
)

// TrainBank trains the reference bank a node serves on a cold start:
// the synthetic dataset of the device catalog under seed, minus the
// heldOut types (the soak keeps a few back so that their devices
// assess as unknown). Training fans out over GOMAXPROCS, and the bank
// serves with an identification cache of core.DefaultCacheSize.
func TrainBank(captures int, seed int64, heldOut ...string) (*core.Identifier, error) {
	raw := devices.GenerateDataset(captures, seed)
	for _, t := range heldOut {
		delete(raw, t)
	}
	ds := make(map[core.TypeID][]fingerprint.Fingerprint, len(raw))
	for k, v := range raw {
		ds[core.TypeID(k)] = v
	}
	return core.Train(ds, core.Config{Seed: seed, CacheSize: core.DefaultCacheSize})
}

// BootBank returns the bank a node serves from boot, and its SHA-256 in
// the model store ("" without a store, ms nil, or when storing failed).
// The store's serving bank comes first; when there is none, or it fails
// its hash or structural validation, cold supplies the bank — training,
// or iotsspd's -model file — and it is stored as the serving bank, so
// the next boot is warm. A loaded bank carries no runtime configuration,
// and at boot there is no serving bank for iotssp.Service.Install to
// take it from, so BootBank binds the defaults here: GOMAXPROCS workers,
// an identification cache of core.DefaultCacheSize, and a core metrics
// bundle on reg (nil for none). Every later bank takes them from the
// one it replaces.
func BootBank(ms *store.ModelStore, reg *obs.Registry, cold func() (*core.Identifier, error), log *log.Logger) (id *core.Identifier, sha string, err error) {
	if ms != nil {
		start := time.Now()
		if id, sha, err = ms.Load(); err == nil {
			log.Printf("state: loaded model bank from disk in %v (%d types, sha256 %.8s)",
				time.Since(start).Round(time.Millisecond), id.NumTypes(), sha)
		} else if !errors.Is(err, fs.ErrNotExist) {
			log.Printf("state: stored model bank rejected (%v), booting the cold bank", err)
		}
	}
	if id == nil {
		if id, err = cold(); err != nil {
			return nil, "", err
		}
		if ms != nil {
			ms.LoadedFromTraining()
			if sha, err = ms.Save(id); err != nil {
				log.Printf("state: could not persist model bank: %v", err)
			} else {
				log.Printf("state: persisted model bank (sha256 %.8s); next boot is warm", sha)
			}
		}
	}
	if err := id.ApplyRuntime(0, core.DefaultCacheSize); err != nil {
		return nil, "", err
	}
	if reg != nil {
		id.SetMetrics(core.NewMetrics(reg))
	}
	return id, sha, nil
}

// InstallModel installs a bank that arrived as bytes — a fleet push, a
// rollout's rollback baseline — into svc and, with a model store (ms
// may be nil), stores those same bytes as the serving bank, so the next
// boot serves it under the SHA-256 its sender named. Bytes that do not
// decode to a bank are rejected and svc keeps serving. A bank that
// installed but could not be stored is logged, not failed: it serves,
// and the next boot falls back to the bank stored before it.
func InstallModel(svc *iotssp.Service, ms *store.ModelStore, model []byte, log *log.Logger) error {
	id, err := core.LoadIdentifier(bytes.NewReader(model))
	if err != nil {
		return err
	}
	if err := svc.Install(id); err != nil {
		return err
	}
	if ms != nil {
		if _, err := ms.SaveServing(model); err != nil {
			log.Printf("state: could not persist installed model bank: %v", err)
		}
	}
	return nil
}

// State is an opened state directory: the durable store, what it
// recovered, and the fault its health probe reports.
type State struct {
	Store *store.Store
	Rec   *store.Recovery
	// fault holds a string: the recovery degradation or the last
	// journaling error. The probe reads it; nothing ever clears it,
	// since either means the on-disk state may be incomplete.
	fault atomic.Value
}

// OpenState opens (and recovers) the state directory and registers the
// store as health's one critical subsystem: a degraded recovery or a
// failed journal append means recovered state may be incomplete, and
// the fail-closed posture wants traffic routed elsewhere. Open it
// before anything that appends, so a torn journal is found — and
// truncated — first. The caller closes st.Store.
func OpenState(dir string, reg *obs.Registry, health *obs.Health, log *log.Logger) (*State, error) {
	opts := store.Options{Logf: func(format string, a ...any) { log.Printf("state: "+format, a...) }}
	if reg != nil {
		opts.Metrics = store.NewMetrics(reg)
	}
	db, rec, err := store.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	st := &State{Store: db, Rec: rec}
	if rec.Degraded {
		st.fault.Store("recovery was degraded; fail-closed sweep applied")
	}
	health.Register("store", true, func() (obs.HealthStatus, string) {
		if msg, _ := st.fault.Load().(string); msg != "" {
			return obs.HealthDegraded, msg
		}
		return obs.HealthOK, ""
	})
	return st, nil
}

// Models returns the state directory's model store, nil for a node
// without one (st nil).
func (st *State) Models() *store.ModelStore {
	if st == nil {
		return nil
	}
	return st.Store.Models()
}

// NewLearner starts the online learner over svc: cfg carries what
// differs per node (K, Metrics) and NewLearner wires the rest —
// progress and errors go to log, every fingerprint svc finds unknown is
// observed (svc's unknown sink, whoever asked: the gateway's assess
// queues, HTTP, the fleet link), promotions grow the next bank from the
// serving one and swap it in through the service, and with a state
// directory (st may be nil) cluster growth is journaled, the clusters
// the last run left are recovered, and each promoted bank is stored as
// the serving bank before its promotion is journaled, so the next boot
// serves the learned types warm. promoted, if set, receives each
// promoted bank's bytes after they are stored — the one encoding both
// the store and, on iotsspd, the rollout controller take.
func NewLearner(svc *iotssp.Service, st *State, cfg learn.Config, promoted func(core.TypeID, []byte), log *log.Logger) (*learn.Learner, error) {
	cfg.Logf = log.Printf
	cfg.Promote = svc.PromoteType
	cfg.Known = svc.HasType
	cfg.OnPromoted = func(t core.TypeID, bank *core.Identifier) error {
		var buf bytes.Buffer
		if err := bank.Save(&buf); err != nil {
			return err
		}
		if st != nil {
			if _, err := st.Models().SaveServing(buf.Bytes()); err != nil {
				return err
			}
		}
		if promoted != nil {
			promoted(t, buf.Bytes())
		}
		return nil
	}
	if st != nil {
		cfg.Store = st.Store
	}
	l, err := learn.New(cfg)
	if err != nil {
		return nil, err
	}
	log.Printf("learn: online device-type learning enabled (k=%d)", cfg.K)
	if st != nil {
		stats, err := l.Recover(st.Rec)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("learn recover: %w", err)
		}
		log.Printf("learn: recovered %s", stats)
	}
	svc.SetUnknownSink(l.Observe)
	return l, nil
}

// FleetAssessor decorates the in-process service with the fleet link:
// every assessment bumps the cumulative counters canary rollouts are
// judged by, and every assessed fingerprint streams to the central
// service. Streaming is fire-and-forget — a Degraded link spools the
// observations for replay and never fails or slows a local verdict.
type FleetAssessor struct {
	Service *iotssp.Service
	Link    *fleet.Session
}

// Assess implements iotssp.Assessor.
func (fa *FleetAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	a, err := fa.Service.Assess(fp)
	if err == nil {
		fa.Link.RecordAssessment(!a.Known)
		_ = fa.Link.Observe(fp) // a full spool sheds, and counts it
	}
	return a, err
}

// CheckpointEvery is the period of a deployed gateway's
// gateway.CheckpointWorker: how much churn a restart replays at most. A
// constant and not a flag — a checkpoint runs beside traffic without
// stalling it, and an idle period costs one sequence-number read.
const CheckpointEvery = time.Minute

// GatewayConfig completes cfg — the caller's callbacks, metrics bundle
// and timing — into the configuration every node's gateway runs with:
// the shard count and the assess queue depth the benchmark measures
// (neither has a flag), the journal with its failures fed to the store
// probe and the log, and the learner's cluster state riding in the
// gateway's checkpoints (its unknown fingerprints come from the
// service, see NewLearner). st and learner may each be nil.
func GatewayConfig(cfg gateway.Config, st *State, learner *learn.Learner, log *log.Logger) gateway.Config {
	cfg.Shards = gateway.DefaultShards
	cfg.AssessQueue = gateway.DefaultAssessQueue
	if st != nil {
		cfg.Store = st.Store
		cfg.OnStoreError = func(err error) {
			st.fault.Store("journal: " + err.Error())
			log.Printf("state: journal: %v", err)
		}
	}
	if learner != nil {
		cfg.LearnState = learner.SnapshotState
	}
	return cfg
}

// ServeMetrics serves the observability endpoints — Prometheus-text
// /metrics, /healthz + /readyz, the standard pprof handlers — on their
// own listener, so operational traffic never mixes with the node's API.
// The returned function closes the listener.
func ServeMetrics(addr string, reg *obs.Registry, health *obs.Health, log *log.Logger) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/healthz", health.LiveHandler())
	mux.Handle("/readyz", health.ReadyHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("metrics listening on http://%s/metrics (plus /healthz, /readyz)", ln.Addr())
	go func() { _ = srv.Serve(ln) }()
	return func() { _ = srv.Close() }, nil
}

// ServeUntilSignal serves h on addr until ^C or SIGTERM — what init
// systems and container runtimes send — then drains connections for up
// to five seconds, so the caller's deferred teardown runs instead of
// the process dying mid-reply or with a dirty journal. what names the
// listener in the log.
func ServeUntilSignal(what, addr string, h http.Handler, log *log.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("%s listening on %s", what, ln.Addr())

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
