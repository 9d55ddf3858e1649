// Command loadgen is the soak: a pass/fail leak gate over the gateway
// the daemons run. It sustains a modeled device population with steady
// churn through the capture front end, a gateway assembled by
// internal/node (the shard count and assess queue bench/ measures, the
// journal, the learner, a chaos-faulted fleet uplink) and a flaky
// assessor for a configured duration, and fails if cumulative p99
// HandlePacket, RSS, goroutine growth or state-dir descriptors cross
// their gates, if anything outlives teardown, or if the store probe
// ends degraded. A gate failure dumps pprof goroutine/heap profiles.
//
// It measures no throughput — bench/ owns that, on named workloads with
// paired runs; the packet rates it prints say what load the gates held
// under, on this host, this time.
//
// Usage:
//
//	loadgen                                   # 30 s, 10k devices
//	loadgen -soak-duration 10m -soak-devices 50000
//	loadgen -soak-out soak.json               # also archive samples + summary
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/chaos"
	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/fleet"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/learn"
	"iotsentinel/internal/netsim"
	"iotsentinel/internal/node"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/vulndb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var cfg soakConfig
	fs.IntVar(&cfg.feeders, "feeders", runtime.GOMAXPROCS(0), "concurrent feeder goroutines")
	fs.IntVar(&cfg.trainCaps, "train-captures", 8, "training captures per type")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed (population, flakes and link faults are deterministic per seed)")
	fs.DurationVar(&cfg.duration, "soak-duration", 30*time.Second, "how long the soak sustains load")
	fs.IntVar(&cfg.devices, "soak-devices", 10000, "modeled devices in the soak population")
	fs.IntVar(&cfg.readers, "soak-readers", runtime.GOMAXPROCS(0), "capture reader goroutines")
	fs.DurationVar(&cfg.sample, "soak-sample", 2*time.Second, "soak sampling and gate-check interval")
	fs.DurationVar(&cfg.p99Ceiling, "soak-p99-ceiling", 25*time.Millisecond, "soak gate: cumulative p99 HandlePacket ceiling")
	fs.Int64Var(&cfg.rssCeilingMB, "soak-rss-mb", 1024, "soak gate: RSS ceiling in MB")
	fs.Float64Var(&cfg.flakeRate, "soak-flake", 0.01, "fraction of assessments that fail (drives quarantine flaps)")
	fs.BoolVar(&cfg.fleet, "soak-fleet", true, "stream fingerprints over a chaos-faulted fleet uplink during the soak")
	fs.StringVar(&cfg.outPath, "soak-out", "", "archive samples and summary as JSON at this path (default: no archive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runSoak(log.New(out, "", 0), cfg)
}

// soakFleetCut is the chaos byte budget on the soak fleet link: each
// connection is torn down after roughly this much traffic (jittered).
// Packed fingerprints are ~100 B each on the wire, so a soak joining a
// thousand devices a second resets the link every two or three seconds
// — continuously exercising reconnect and replay without starving the
// uplink into spool drops (at 48 KiB the session spent most of its time
// in backoff and shed five fingerprints in six).
const soakFleetCut = 256 << 10

// soakIdleGap is the gateway idle gap during soak. Device-local
// virtual clocks jump past it between cycles, so the first packet of
// the cycle after a cold join finalizes that capture and triggers the
// assessment. An assessed device is never captured again: until it
// leaves and rejoins (every 7th cycle) its cycles are plain forwarding,
// so about 6 of 7 soak cycles exercise the forward path, not the
// fingerprint path.
const soakIdleGap = 10 * time.Second

// heldOutProfiles is how many catalog profiles are excluded from
// training so their devices assess as unknown and feed the learner.
const heldOutProfiles = 3

// soakRetryPeriod is the soak's quarantine retry period: a tenth of
// gatewayd's default, so that flaps enter and leave quarantine many
// times within a 30 s run.
const soakRetryPeriod = 500 * time.Millisecond

// soakCheckpointPeriod is the soak's checkpoint period, the benchmark's:
// far shorter than the daemon's, so that a short run takes many
// snapshots beside its churn.
const soakCheckpointPeriod = 2 * time.Second

// soakConfig is the soak's flags.
type soakConfig struct {
	duration     time.Duration
	devices      int
	feeders      int
	readers      int
	trainCaps    int
	seed         int64
	sample       time.Duration
	p99Ceiling   time.Duration
	rssCeilingMB int64
	flakeRate    float64
	fleet        bool
	outPath      string
}

// soakSample is one periodic measurement.
type soakSample struct {
	Seconds      float64 `json:"seconds"`
	Packets      uint64  `json:"packets"`
	WindowPPS    float64 `json:"window_pps"`
	P99Seconds   float64 `json:"p99_handle_seconds"`
	RSSBytes     int64   `json:"rss_bytes"`
	Goroutines   int     `json:"goroutines"`
	StateDirFDs  int     `json:"state_dir_fds"`
	JournalBytes int64   `json:"journal_bytes"`
	Devices      int     `json:"devices"`
	Quarantined  int     `json:"quarantined"`
}

// soakSummary is the result, archived as JSON when -soak-out names a
// path. Its packet rates describe the load the gates held under on this
// host and run; they are not a throughput measurement (bench/ owns
// those).
type soakSummary struct {
	Date               string       `json:"date"`
	Cores              int          `json:"cores"`
	GOMAXPROCS         int          `json:"gomaxprocs"`
	DurationSeconds    float64      `json:"duration_seconds"`
	DevicesModeled     int          `json:"devices_modeled"`
	UnknownDevices     int          `json:"unknown_devices"`
	Feeders            int          `json:"feeders"`
	Readers            int          `json:"readers"`
	Packets            uint64       `json:"packets"`
	SustainedPPS       float64      `json:"sustained_pps"`
	P99HandleSeconds   float64      `json:"p99_handle_seconds"`
	MaxRSSBytes        int64        `json:"max_rss_bytes"`
	BaselineGoroutines int          `json:"baseline_goroutines"`
	SteadyGoroutines   int          `json:"steady_goroutines"`
	FinalGoroutines    int          `json:"final_goroutines"`
	MaxStateDirFDs     int          `json:"max_state_dir_fds"`
	FinalStateDirFDs   int          `json:"final_state_dir_fds"`
	JournalBytes       int64        `json:"journal_bytes"`
	Cycles             uint64       `json:"cycles"`
	Removals           uint64       `json:"removals"`
	QuarantineFlaps    uint64       `json:"quarantine_flaps"`
	UnknownObserved    uint64       `json:"unknown_observed"`
	TypesPromoted      uint64       `json:"types_promoted"`
	CaptureDrops       uint64       `json:"capture_drops"`
	FleetReconnects    uint64       `json:"fleet_reconnects"`
	FleetSpoolDropped  uint64       `json:"fleet_spool_dropped"`
	FleetLinkResets    uint64       `json:"fleet_link_resets"`
	FleetIngested      uint64       `json:"fleet_ingested"`
	Pass               bool         `json:"pass"`
	Failures           []string     `json:"failures,omitempty"`
	Samples            []soakSample `json:"samples"`
}

// soakDevice is one modeled device: pre-marshaled setup frames plus a
// device-local virtual clock. Frames never change across cycles; only
// the timestamps advance, so the steady-state injection path does no
// marshaling.
type soakDevice struct {
	mac    packet.MAC
	frames [][]byte
	offs   []time.Duration
	clock  time.Time
	cycles uint64
}

// flakyAssessor fails a seeded fraction of assessments so quarantine
// entry/retry/exit flaps continuously under load, and counts the
// verdicts that came back unknown. It deliberately implements only
// Assess: every path through the gateway stays on the
// single-assessment code path.
type flakyAssessor struct {
	inner   iotssp.Assessor // the service, behind the fleet decoration when the leg is on
	mu      sync.Mutex
	rng     *rand.Rand
	rate    float64
	unknown atomic.Uint64
}

var errInjectedFlake = fmt.Errorf("soak: injected assessment failure")

func (f *flakyAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	f.mu.Lock()
	flake := f.rng.Float64() < f.rate
	f.mu.Unlock()
	if flake {
		return iotssp.Assessment{}, errInjectedFlake
	}
	a, err := f.inner.Assess(fp)
	if err == nil && !a.Known {
		f.unknown.Add(1)
	}
	return a, err
}

// buildSoakPool generates the modeled population: cfg.devices captures
// spread over the catalog, with the held-out profiles — the ones the
// bank is not trained on, returned by name — contributing a small
// unknown population (about 2%, at least one per held-out profile).
func buildSoakPool(cfg soakConfig) (pool []*soakDevice, heldOutNames []string, unknown int, err error) {
	catalog := devices.Catalog()
	if len(catalog) <= heldOutProfiles {
		return nil, nil, 0, fmt.Errorf("catalog too small: %d profiles", len(catalog))
	}
	known := catalog[:len(catalog)-heldOutProfiles]
	heldOut := catalog[len(catalog)-heldOutProfiles:]

	unknownTotal := cfg.devices / 50
	if unknownTotal < heldOutProfiles {
		unknownTotal = heldOutProfiles
	}
	knownTotal := cfg.devices - unknownTotal

	// spread adds total devices over profiles, evenly up to rounding.
	spread := func(profiles []*devices.Profile, total int, seed int64) error {
		per := (total + len(profiles) - 1) / len(profiles)
		for i, p := range profiles {
			n := min(per, total-i*per)
			if n <= 0 {
				break
			}
			for _, c := range devices.GenerateCaptures(p, n, seed+int64(i)) {
				d := &soakDevice{mac: c.MAC, clock: c.Times[0]}
				for j, pk := range c.Packets {
					frame, err := pk.Marshal()
					if err != nil {
						return fmt.Errorf("soak: marshal %s: %w", c.Type, err)
					}
					d.frames = append(d.frames, frame)
					d.offs = append(d.offs, c.Times[j].Sub(c.Times[0]))
				}
				pool = append(pool, d)
			}
		}
		return nil
	}
	if err := spread(known, knownTotal, cfg.seed); err != nil {
		return nil, nil, 0, err
	}
	if err := spread(heldOut, unknownTotal, cfg.seed+1000); err != nil {
		return nil, nil, 0, err
	}
	for _, p := range heldOut {
		heldOutNames = append(heldOutNames, string(p.ID))
	}
	return pool, heldOutNames, unknownTotal, nil
}

// gates evaluates the continuous assertions against one sample,
// returning a failure description per violated gate.
func (cfg *soakConfig) gates(s soakSample, steadyGoroutines int) []string {
	var fails []string
	if s.P99Seconds >= 0 && s.P99Seconds > cfg.p99Ceiling.Seconds() {
		fails = append(fails, fmt.Sprintf("p99 HandlePacket %.3fms exceeds ceiling %v",
			s.P99Seconds*1e3, cfg.p99Ceiling))
	}
	if s.RSSBytes > cfg.rssCeilingMB<<20 {
		fails = append(fails, fmt.Sprintf("RSS %d MB exceeds ceiling %d MB", s.RSSBytes>>20, cfg.rssCeilingMB))
	}
	// The engine's goroutine count is fixed after spin-up (feeders +
	// readers + workers); any growth under steady load is a leak in
	// the making. The slack absorbs transient runtime helpers.
	if steadyGoroutines > 0 && s.Goroutines > steadyGoroutines+16 {
		fails = append(fails, fmt.Sprintf("goroutines grew %d -> %d under steady load",
			steadyGoroutines, s.Goroutines))
	}
	// The store holds the journal and at most a snapshot being
	// written; anything more means checkpoint/compaction leaks
	// descriptors.
	if s.StateDirFDs > 4 {
		fails = append(fails, fmt.Sprintf("%d fds open under the state dir (journal/snapshot leak)", s.StateDirFDs))
	}
	return fails
}

// dumpProfiles writes pprof goroutine and heap profiles into dir so a
// failed gate ships with the evidence needed to debug it.
func dumpProfiles(log *log.Logger, dir string) {
	runtime.GC() // the heap profile is as of the last collection
	for _, p := range []struct {
		name  string
		debug int
	}{{"goroutine", 1}, {"heap", 0}} {
		path := filepath.Join(dir, "soak_"+p.name+".pprof")
		if f, err := os.Create(path); err == nil {
			_ = pprof.Lookup(p.name).WriteTo(f, p.debug)
			_ = f.Close()
			log.Printf("soak: wrote %s", path)
		}
	}
}

// journalBytes sums the journal's segment files.
func journalBytes(dir string) (n int64) {
	segments, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	for _, path := range segments {
		if fi, err := os.Stat(path); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// runSoak sustains a modeled device population with steady churn —
// joins, leave-and-rejoin cold joins, quarantine flaps, unknown devices
// clustering into the online learner — through the capture front end
// and a gateway assembled by internal/node exactly as gatewayd's is,
// gating continuously on tail latency, RSS, goroutine growth and
// state-dir fd leaks.
func runSoak(log *log.Logger, cfg soakConfig) error {
	baseline := runtime.NumGoroutine()

	pool, heldOut, unknownCount, err := buildSoakPool(cfg)
	if err != nil {
		return err
	}
	id, err := node.TrainBank(cfg.trainCaps, cfg.seed, heldOut...)
	if err != nil {
		return err
	}
	svc := iotssp.New(id, vulndb.NewDefault())
	log.Printf("soak: %d devices (%d unknown from held-out %v), %s, %d feeders, %d readers, shards=%d queue=%d",
		len(pool), unknownCount, heldOut, cfg.duration, cfg.feeders, cfg.readers, gateway.DefaultShards, gateway.DefaultAssessQueue)

	stateDir, err := os.MkdirTemp("", "soak-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	reg := obs.NewRegistry()
	health := obs.NewHealth()
	st, err := node.OpenState(stateDir, reg, health, log)
	if err != nil {
		return err
	}

	lab, err := netsim.NewLab(cfg.seed)
	if err != nil {
		return err
	}
	gm := gateway.NewMetrics(reg)
	cm := capture.NewMetrics(reg)

	// The fleet leg: an in-process fleet server reached only through a
	// seeded chaos dialer that tears the connection down every ~256 KB, so
	// the soak's fingerprint stream runs on a permanently flaky uplink.
	// The gates below must stay green regardless — fleet-link weather
	// is not allowed to touch the packet path.
	var (
		sess          *fleet.Session
		fleetSrv      *fleet.Server
		fleetDialer   *chaos.Dialer
		fleetIngested atomic.Uint64
		assessor      iotssp.Assessor = svc
	)
	if cfg.fleet {
		freg := fleet.NewRegistry(2*time.Second, nil)
		fleetSrv, err = fleet.NewServer(fleet.ServerConfig{
			Registry: freg,
			Ingest: func(fps []fingerprint.Fingerprint) int {
				fleetIngested.Add(uint64(len(fps)))
				return 0
			},
		})
		if err != nil {
			return err
		}
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go fleetSrv.Serve(fln)
		fleetAddr := fln.Addr().String()
		fleetDialer = chaos.NewDialer(func() (net.Conn, error) {
			return net.Dial("tcp", fleetAddr)
		}, chaos.Config{
			Seed:          uint64(cfg.seed),
			Latency:       200 * time.Microsecond,
			CutAfterBytes: soakFleetCut,
		})
		sess, err = fleet.NewSession(fleet.SessionConfig{
			Client: fleet.ClientConfig{
				GatewayID:     "soak-gw",
				Heartbeat:     250 * time.Millisecond,
				FlushInterval: 500 * time.Millisecond,
				Dialer:        fleetDialer.Dial,
			},
			Metrics: fleet.NewLinkMetrics(reg),
		})
		if err != nil {
			return err
		}
		assessor = &node.FleetAssessor{Service: svc, Link: sess}
		log.Printf("soak: fleet uplink under chaos (seed %d, cut ~%d KB per conn, ≤200µs injected latency)",
			cfg.seed, soakFleetCut>>10)
	}

	flaky := &flakyAssessor{inner: assessor, rng: rand.New(rand.NewSource(cfg.seed)), rate: cfg.flakeRate}

	var flaps, typesPromoted, removals, packets, handleErrs atomic.Uint64

	learner, err := node.NewLearner(svc, st, learn.Config{K: learn.DefaultK},
		func(core.TypeID, []byte) { typesPromoted.Add(1) }, log)
	if err != nil {
		return err
	}

	gw := gateway.New(flaky, lab.Net.Switch(), node.GatewayConfig(gateway.Config{
		IdleGap:       soakIdleGap,
		Metrics:       gm,
		OnQuarantined: func(gateway.DeviceInfo, error) { flaps.Add(1) },
	}, st, learner, log))

	// The live-capture topology: feeders inject pre-marshaled frames
	// into a MAC-hash fanout, per-CPU readers decode and drive
	// HandlePacket — the same path a real interface would feed.
	fanout := capture.NewFanout(cfg.readers, capture.RingConfig{Lossless: true})
	pump := capture.Attach(fanout, func(ts time.Time, pk *packet.Packet) {
		if _, err := gw.HandlePacket(ts, pk); err != nil {
			handleErrs.Add(1)
			return
		}
		packets.Add(1)
	}, capture.PumpConfig{Metrics: cm})

	ctx, cancel := context.WithCancel(context.Background())
	var feeders sync.WaitGroup
	start := time.Now()
	for f := 0; f < cfg.feeders; f++ {
		feeders.Add(1)
		go func(f int) {
			defer feeders.Done()
			for {
				for i := f; i < len(pool); i += cfg.feeders {
					select {
					case <-ctx.Done():
						return
					default:
					}
					d := pool[i]
					// Every 7th cycle the device "leaves" and rejoins:
					// the gateway forgets it, revokes its rule, and the
					// next capture is a cold join.
					if d.cycles > 0 && d.cycles%7 == uint64(i%7) {
						gw.RemoveDevice(d.mac)
						removals.Add(1)
					}
					for j, frame := range d.frames {
						if err := fanout.Inject(d.clock.Add(d.offs[j]), frame); err != nil {
							return // fanout closed: teardown
						}
					}
					// Jump the device's clock past the idle gap: if this
					// cycle was a cold join, the next cycle's first
					// packet finalizes the capture and assesses it.
					d.clock = d.clock.Add(d.offs[len(d.offs)-1] + soakIdleGap + time.Second)
					d.cycles++
				}
			}
		}(f)
	}

	// Housekeeping: the daemon's RetryWorker and CheckpointWorker at the
	// soak's periods. The daemon's third worker, ExpiryWorker, stays
	// out: the soak's device clocks are virtual (2016 epoch), so its
	// wall-clock idle sweep would finalize every capture mid-setup.
	retry := gateway.NewRetryWorker(gw, soakRetryPeriod)
	checkpoint := gateway.NewCheckpointWorker(gw, soakCheckpointPeriod)

	// Sampler: measure and gate. Runs on the main goroutine.
	sum := soakSummary{
		Date:               time.Now().UTC().Format("2006-01-02"),
		Cores:              runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		DevicesModeled:     len(pool),
		UnknownDevices:     unknownCount,
		Feeders:            cfg.feeders,
		Readers:            cfg.readers,
		BaselineGoroutines: baseline,
	}
	deadline := time.After(cfg.duration)
	ticker := time.NewTicker(cfg.sample)
	defer ticker.Stop()
	var lastPackets uint64
	lastSample := start
	var failures []string

	takeSample := func(now time.Time) soakSample {
		ps := obs.ReadProcStats()
		pk := packets.Load()
		s := soakSample{
			Seconds:      now.Sub(start).Seconds(),
			Packets:      pk,
			WindowPPS:    float64(pk-lastPackets) / now.Sub(lastSample).Seconds(),
			P99Seconds:   p99Handle(gm),
			RSSBytes:     ps.RSSBytes,
			Goroutines:   ps.Goroutines,
			StateDirFDs:  obs.CountFDsUnder(stateDir),
			JournalBytes: journalBytes(stateDir),
			Devices:      len(gw.Devices()),
			Quarantined:  gw.QuarantineLen(),
		}
		lastPackets = pk
		lastSample = now
		return s
	}

sampleLoop:
	for {
		select {
		case now := <-ticker.C:
			s := takeSample(now)
			if sum.SteadyGoroutines == 0 {
				sum.SteadyGoroutines = s.Goroutines
			}
			if s.RSSBytes > sum.MaxRSSBytes {
				sum.MaxRSSBytes = s.RSSBytes
			}
			if s.StateDirFDs > sum.MaxStateDirFDs {
				sum.MaxStateDirFDs = s.StateDirFDs
			}
			sum.Samples = append(sum.Samples, s)
			log.Printf("soak: t=%5.1fs %8.0f pkt/s  p99 %s  rss %d MB  goroutines %d  fds %d  journal %d KB  devices %d  quarantined %d",
				s.Seconds, s.WindowPPS, fmtP99(s.P99Seconds), s.RSSBytes>>20, s.Goroutines,
				s.StateDirFDs, s.JournalBytes>>10, s.Devices, s.Quarantined)
			if fails := cfg.gates(s, sum.SteadyGoroutines); len(fails) > 0 {
				failures = append(failures, fails...)
				break sampleLoop
			}
		case <-deadline:
			break sampleLoop
		}
	}
	elapsed := time.Since(start)

	// Teardown: stop injection, drain the capture path, let in-flight
	// assessments and clustering settle, then shut everything down.
	cancel()
	feeders.Wait()
	if err := pump.Close(); err != nil {
		failures = append(failures, fmt.Sprintf("pump: %v", err))
	}
	gw.WaitAssessIdle()
	checkpoint.Shutdown()
	retry.Shutdown()
	learner.Wait()
	learner.Close()
	if err := gw.Shutdown(); err != nil {
		failures = append(failures, fmt.Sprintf("final checkpoint: %v", err))
	}
	// The fleet leg tears down before the zero-growth gate: its
	// goroutines (session loops, client per-conn pair, server handlers)
	// are part of the leak budget like everything else.
	if sess != nil {
		sess.Close()
		fleetSrv.Close()
		fst := sess.Stats()
		sum.FleetReconnects = fst.Reconnects
		sum.FleetSpoolDropped = fst.SpoolDropped
		sum.FleetLinkResets = fleetDialer.Resets()
		sum.FleetIngested = fleetIngested.Load()
		log.Printf("soak: fleet link survived %d resets (%d reconnects): %d fingerprints ingested centrally, %d dropped at the spool bound",
			sum.FleetLinkResets, sum.FleetReconnects, sum.FleetIngested, sum.FleetSpoolDropped)
	}

	sum.DurationSeconds = elapsed.Seconds()
	sum.Packets = packets.Load()
	sum.SustainedPPS = float64(sum.Packets) / elapsed.Seconds()
	sum.P99HandleSeconds = p99Handle(gm)
	sum.JournalBytes = journalBytes(stateDir)
	sum.Cycles = totalCycles(pool)
	sum.Removals = removals.Load()
	sum.QuarantineFlaps = flaps.Load()
	sum.UnknownObserved = flaky.unknown.Load()
	sum.TypesPromoted = typesPromoted.Load()
	sum.CaptureDrops = fanout.Drops()
	if n := handleErrs.Load(); n > 0 {
		failures = append(failures, fmt.Sprintf("%d HandlePacket errors", n))
	}
	if sum.CaptureDrops > 0 {
		failures = append(failures, fmt.Sprintf("%d frames dropped by a lossless fanout", sum.CaptureDrops))
	}

	// Zero-growth gate: after teardown the goroutine count must return
	// to (about) the pre-engine baseline. Poll through a grace window
	// for stragglers mid-exit.
	final := runtime.NumGoroutine()
	for waited := time.Duration(0); final > baseline+2 && waited < 5*time.Second; waited += 50 * time.Millisecond {
		time.Sleep(50 * time.Millisecond)
		final = runtime.NumGoroutine()
	}
	sum.FinalGoroutines = final
	if final > baseline+2 {
		failures = append(failures, fmt.Sprintf("goroutines did not return to baseline: %d -> %d", baseline, final))
	}

	// fd-leak gate: with the gateway closed, only the store's journal
	// may remain open; after Close, nothing.
	if err := st.Store.Close(); err != nil {
		failures = append(failures, fmt.Sprintf("store close: %v", err))
	}
	sum.FinalStateDirFDs = obs.CountFDsUnder(stateDir)
	if sum.FinalStateDirFDs > 0 {
		failures = append(failures, fmt.Sprintf("%d fds still open under the state dir after close", sum.FinalStateDirFDs))
	}
	// The store probe is the daemon's own verdict on its journal: a
	// failed append anywhere in the run leaves it degraded.
	if ready, subs := health.Check(); !ready {
		failures = append(failures, fmt.Sprintf("health not ready after the run: %+v", subs))
	}

	sum.Pass = len(failures) == 0
	sum.Failures = failures

	log.Printf("soak: %d packets in %.1fs, %d cycles, %d removals, %d flaps, %d unknown observations, %d types promoted",
		sum.Packets, sum.DurationSeconds, sum.Cycles, sum.Removals,
		sum.QuarantineFlaps, sum.UnknownObserved, sum.TypesPromoted)
	// The archive is for whoever asked for one: a passing run leaves
	// nothing behind by default, and profiles land next to the archive,
	// or in the working directory without one.
	profileDir := "."
	if cfg.outPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", cfg.outPath)
		profileDir = filepath.Dir(cfg.outPath)
	}
	if !sum.Pass {
		dumpProfiles(log, profileDir)
		return fmt.Errorf("soak gates failed: %v", failures)
	}
	log.Printf("soak: all gates passed (p99 %s, max rss %d MB, goroutines %d->%d->%d, fds clean)",
		fmtP99(sum.P99HandleSeconds), sum.MaxRSSBytes>>20, baseline, sum.SteadyGoroutines, final)
	return nil
}

func totalCycles(pool []*soakDevice) uint64 {
	var n uint64
	for _, d := range pool {
		n += d.cycles
	}
	return n
}

// p99Handle is the cumulative p99 HandlePacket latency in seconds, -1
// before the first sample (JSON cannot carry the histogram's NaN).
func p99Handle(gm *gateway.Metrics) float64 {
	if p99 := gm.HandleLatency().Quantile(0.99); !math.IsNaN(p99) {
		return p99
	}
	return -1
}

func fmtP99(sec float64) string {
	if sec < 0 {
		return "n/a"
	}
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
