// Soak mode: sustain a modeled device population with steady churn —
// joins, leave-and-rejoin cold joins, quarantine flaps, unknown
// devices clustering into the online learner — through the capture
// front end for a configured duration, continuously gating on tail
// latency, RSS, goroutine growth, and state-dir fd leaks. A gate
// failure dumps pprof goroutine/heap profiles next to the archive.
// Every run archives samples + summary as SOAK_<date>.json, which
// benchreport -soak-delta diffs across runs.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/store"
	"iotsentinel/internal/vulndb"
)

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

// soakConfig collects the soak-mode knobs.
type soakConfig struct {
	duration   time.Duration
	devices    int
	shards     int
	queue      int
	feeders    int
	readers    int
	trainCaps  int
	seed       int64
	cacheSize  int
	sample     time.Duration
	p99Ceiling time.Duration
	rssCeiling int64
	flakeRate  float64
	fleet      bool
	outPath    string
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

// soakSummary is the archived result (the SOAK_<date>.json schema).
// benchreport -soak-delta compares SustainedPPS across archives.
type soakSummary struct {
	Date               string       `json:"date"`
	Cores              int          `json:"cores"`
	GOMAXPROCS         int          `json:"gomaxprocs"`
	DurationSeconds    float64      `json:"duration_seconds"`
	DevicesModeled     int          `json:"devices_modeled"`
	UnknownDevices     int          `json:"unknown_devices"`
	Shards             int          `json:"shards"`
	AssessQueue        int          `json:"assess_queue"`
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
	mac     packet.MAC
	frames  [][]byte
	offs    []time.Duration
	clock   time.Time
	cycles  uint64
	unknown bool
}

// flakyAssessor fails a seeded fraction of assessments so quarantine
// entry/retry/exit flaps continuously under load. It deliberately
// implements only Assess: every path through the gateway stays on the
// single-assessment code path.
type flakyAssessor struct {
	svc  *iotssp.Service
	sess *fleet.Session // nil without the fleet leg
	mu   sync.Mutex
	rng  *rand.Rand
	rate float64
}

var errInjectedFlake = fmt.Errorf("soak: injected assessment failure")

func (f *flakyAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	f.mu.Lock()
	flake := f.rng.Float64() < f.rate
	f.mu.Unlock()
	if flake {
		return iotssp.Assessment{}, errInjectedFlake
	}
	a, err := f.svc.Assess(fp)
	if err == nil && f.sess != nil {
		// Same shape as gatewayd's fleet decoration: counters plus a
		// fire-and-forget observation stream. A Degraded link spools;
		// it never fails or slows the local assessment verdict.
		f.sess.RecordAssessment(!a.Known)
		_ = f.sess.Observe(fp)
	}
	return a, err
}

// buildSoakPool generates the modeled population: cfg.devices captures
// spread over the catalog, with the held-out profiles contributing a
// small unknown population (about 2%, at least one per held-out
// profile) that the trained bank cannot identify.
func buildSoakPool(cfg soakConfig) ([]*soakDevice, []*devices.Profile, error) {
	catalog := devices.Catalog()
	if len(catalog) <= heldOutProfiles {
		return nil, nil, fmt.Errorf("catalog too small: %d profiles", len(catalog))
	}
	known := catalog[:len(catalog)-heldOutProfiles]
	heldOut := catalog[len(catalog)-heldOutProfiles:]

	unknownTotal := cfg.devices / 50
	if unknownTotal < heldOutProfiles {
		unknownTotal = heldOutProfiles
	}
	knownTotal := cfg.devices - unknownTotal

	var pool []*soakDevice
	add := func(p *devices.Profile, n int, seed int64, unknown bool) error {
		for _, c := range devices.GenerateCaptures(p, n, seed) {
			d := &soakDevice{mac: c.MAC, unknown: unknown, clock: c.Times[0]}
			base := c.Times[0]
			for i, pk := range c.Packets {
				frame, err := pk.Marshal()
				if err != nil {
					return fmt.Errorf("soak: marshal %s: %w", c.Type, err)
				}
				d.frames = append(d.frames, frame)
				d.offs = append(d.offs, c.Times[i].Sub(base))
			}
			pool = append(pool, d)
		}
		return nil
	}
	per := (knownTotal + len(known) - 1) / len(known)
	for i, p := range known {
		n := per
		if rem := knownTotal - i*per; rem < n {
			n = rem
		}
		if n <= 0 {
			break
		}
		if err := add(p, n, cfg.seed+int64(i), false); err != nil {
			return nil, nil, err
		}
	}
	uper := (unknownTotal + heldOutProfiles - 1) / heldOutProfiles
	for i, p := range heldOut {
		n := uper
		if rem := unknownTotal - i*uper; rem < n {
			n = rem
		}
		if n <= 0 {
			break
		}
		if err := add(p, n, cfg.seed+1000+int64(i), true); err != nil {
			return nil, nil, err
		}
	}
	return pool, heldOut, nil
}

// trainSoakService trains on the catalog minus the held-out profiles.
func trainSoakService(cfg soakConfig) (*iotssp.Service, error) {
	raw := devices.GenerateDataset(cfg.trainCaps, cfg.seed)
	catalog := devices.Catalog()
	heldOut := make(map[string]bool, heldOutProfiles)
	for _, p := range catalog[len(catalog)-heldOutProfiles:] {
		heldOut[string(p.ID)] = true
	}
	ds := make(map[core.TypeID][]fingerprint.Fingerprint, len(raw))
	for k, v := range raw {
		if heldOut[k] {
			continue
		}
		ds[core.TypeID(k)] = v
	}
	id, err := core.Train(ds, core.Config{Seed: cfg.seed, CacheSize: cfg.cacheSize})
	if err != nil {
		return nil, err
	}
	return iotssp.New(id, vulndb.NewDefault()), nil
}

// gates evaluates the continuous assertions against one sample,
// returning a failure description per violated gate.
func (cfg *soakConfig) gates(s soakSample, steadyGoroutines int) []string {
	var fails []string
	if s.P99Seconds >= 0 && s.P99Seconds > cfg.p99Ceiling.Seconds() {
		fails = append(fails, fmt.Sprintf("p99 HandlePacket %.3fms exceeds ceiling %v",
			s.P99Seconds*1e3, cfg.p99Ceiling))
	}
	if s.RSSBytes > cfg.rssCeiling {
		fails = append(fails, fmt.Sprintf("RSS %d MB exceeds ceiling %d MB",
			s.RSSBytes>>20, cfg.rssCeiling>>20))
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

// dumpProfiles writes pprof goroutine and heap profiles next to the
// archive so a failed gate ships with the evidence needed to debug it.
func dumpProfiles(out io.Writer, dir string) {
	gp := filepath.Join(dir, "soak_goroutine.pprof")
	if f, err := os.Create(gp); err == nil {
		_ = pprof.Lookup("goroutine").WriteTo(f, 1)
		_ = f.Close()
		fmt.Fprintf(out, "soak: wrote %s\n", gp)
	}
	hp := filepath.Join(dir, "soak_heap.pprof")
	if f, err := os.Create(hp); err == nil {
		runtime.GC()
		_ = pprof.WriteHeapProfile(f)
		_ = f.Close()
		fmt.Fprintf(out, "soak: wrote %s\n", hp)
	}
}

func journalBytes(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// runSoak is the sustained-load harness.
func runSoak(out io.Writer, cfg soakConfig) error {
	baseline := runtime.NumGoroutine()

	svc, err := trainSoakService(cfg)
	if err != nil {
		return err
	}
	pool, heldOut, err := buildSoakPool(cfg)
	if err != nil {
		return err
	}
	unknownCount := 0
	for _, d := range pool {
		if d.unknown {
			unknownCount++
		}
	}
	heldOutNames := make([]string, len(heldOut))
	for i, p := range heldOut {
		heldOutNames[i] = string(p.ID)
	}
	fmt.Fprintf(out, "soak: %d devices (%d unknown from held-out %v), %s, %d feeders, %d readers, shards=%d queue=%d\n",
		len(pool), unknownCount, heldOutNames, cfg.duration, cfg.feeders, cfg.readers, cfg.shards, cfg.queue)

	stateDir, err := os.MkdirTemp("", "soak-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	st, _, err := store.Open(stateDir, store.Options{})
	if err != nil {
		return err
	}

	lab, err := netsim.NewLab(cfg.seed)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
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
		fmt.Fprintf(out, "soak: fleet uplink under chaos (seed %d, cut ~%d KB per conn, ≤200µs injected latency)\n",
			cfg.seed, soakFleetCut>>10)
	}

	flaky := &flakyAssessor{svc: svc, sess: sess, rng: rand.New(rand.NewSource(cfg.seed)), rate: cfg.flakeRate}

	var flaps, unknownSeen, typesPromoted, removals, packets, handleErrs atomic.Uint64

	learner, err := learn.New(learn.Config{
		Promote: func(t core.TypeID, fps []fingerprint.Fingerprint) (*core.Identifier, error) {
			return svc.PromoteType(t, fps, iotssp.PromoteOptions{})
		},
		Known:      svc.HasType,
		Store:      st,
		OnPromoted: func(core.TypeID, *core.Identifier) { typesPromoted.Add(1) },
	})
	if err != nil {
		return err
	}

	gwCfg := gateway.Config{
		IdleGap:     soakIdleGap,
		Shards:      cfg.shards,
		AssessQueue: cfg.queue,
		Metrics:     gm,
		Store:       st,
		OnUnknown: func(_ gateway.DeviceInfo, fp fingerprint.Fingerprint) {
			unknownSeen.Add(1)
			learner.Observe(fp)
		},
		OnQuarantined: func(gateway.DeviceInfo, error) { flaps.Add(1) },
		LearnState:    learner.SnapshotState,
	}
	gw := gateway.New(flaky, lab.Net.Switch(), gwCfg)

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

	// Quarantine retry + periodic checkpoint, the background churn a
	// production gateway runs.
	var housekeeping sync.WaitGroup
	housekeeping.Add(1)
	go func() {
		defer housekeeping.Done()
		retry := time.NewTicker(500 * time.Millisecond)
		checkpoint := time.NewTicker(2 * time.Second)
		defer retry.Stop()
		defer checkpoint.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-retry.C:
				_, _ = gw.RetryQuarantined(time.Now())
			case <-checkpoint.C:
				_ = gw.Checkpoint()
			}
		}
	}()

	// Sampler: measure, gate, archive. Runs on the main goroutine.
	sum := soakSummary{
		Date:               time.Now().UTC().Format("2006-01-02"),
		Cores:              runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		DevicesModeled:     len(pool),
		UnknownDevices:     unknownCount,
		Shards:             gw.Shards(),
		AssessQueue:        cfg.queue,
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
		p99 := gm.HandleLatency().Quantile(0.99)
		if math.IsNaN(p99) {
			p99 = -1
		}
		pk := packets.Load()
		s := soakSample{
			Seconds:      now.Sub(start).Seconds(),
			Packets:      pk,
			WindowPPS:    float64(pk-lastPackets) / now.Sub(lastSample).Seconds(),
			P99Seconds:   p99,
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
			fmt.Fprintf(out, "soak: t=%5.1fs %8.0f pkt/s  p99 %s  rss %d MB  goroutines %d  fds %d  journal %d KB  devices %d  quarantined %d\n",
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
	housekeeping.Wait()
	learner.Wait()
	learner.Close()
	gw.Close()
	if err := gw.Checkpoint(); err != nil {
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
		fmt.Fprintf(out, "soak: fleet link survived %d resets (%d reconnects): %d fingerprints ingested centrally, %d dropped at the spool bound\n",
			sum.FleetLinkResets, sum.FleetReconnects, sum.FleetIngested, sum.FleetSpoolDropped)
	}

	sum.DurationSeconds = elapsed.Seconds()
	sum.Packets = packets.Load()
	sum.SustainedPPS = float64(sum.Packets) / elapsed.Seconds()
	if p99 := gm.HandleLatency().Quantile(0.99); !math.IsNaN(p99) {
		sum.P99HandleSeconds = p99
	} else {
		sum.P99HandleSeconds = -1
	}
	sum.JournalBytes = journalBytes(stateDir)
	sum.Cycles = totalCycles(pool)
	sum.Removals = removals.Load()
	sum.QuarantineFlaps = flaps.Load()
	sum.UnknownObserved = unknownSeen.Load()
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
	if err := st.Close(); err != nil {
		failures = append(failures, fmt.Sprintf("store close: %v", err))
	}
	sum.FinalStateDirFDs = obs.CountFDsUnder(stateDir)
	if sum.FinalStateDirFDs > 0 {
		failures = append(failures, fmt.Sprintf("%d fds still open under the state dir after close", sum.FinalStateDirFDs))
	}

	sum.Pass = len(failures) == 0
	sum.Failures = failures

	outPath := cfg.outPath
	if outPath == "" {
		outPath = fmt.Sprintf("SOAK_%s.json", time.Now().UTC().Format("20060102"))
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "soak: %d packets in %.1fs (%.0f pkt/s sustained), %d cycles, %d removals, %d flaps, %d unknown observations, %d types promoted\n",
		sum.Packets, sum.DurationSeconds, sum.SustainedPPS, sum.Cycles, sum.Removals,
		sum.QuarantineFlaps, sum.UnknownObserved, sum.TypesPromoted)
	fmt.Fprintf(out, "wrote %s\n", outPath)

	if !sum.Pass {
		dumpProfiles(out, filepath.Dir(outPath))
		return fmt.Errorf("soak gates failed: %v", failures)
	}
	fmt.Fprintf(out, "soak: all gates passed (p99 %s, max rss %d MB, goroutines %d->%d->%d, fds clean)\n",
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

func fmtP99(sec float64) string {
	if sec < 0 {
		return "n/a"
	}
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}
