// Package gateway implements the Security Gateway of Sect. III-A: the
// SDN-based home router that monitors new devices during their setup
// phase, fingerprints their traffic, asks the IoT Security Service for
// a device-type identification and isolation level, and enforces the
// returned level through the sdn switch.
package gateway

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
	"iotsentinel/internal/vulndb"
	"iotsentinel/internal/wps"
)

// DeviceState tracks a device through its lifecycle.
type DeviceState int

// Device states.
const (
	// StateMonitoring: the device is in its setup phase and its
	// packets are being captured for fingerprinting.
	StateMonitoring DeviceState = iota + 1
	// StateAssessed: the IoTSSP returned an assessment and an
	// enforcement rule is installed.
	StateAssessed
	// StateQuarantined: the assessment failed (service down, timeout,
	// breaker open); the device is isolated fail-closed at sdn.Strict
	// and its fingerprint is parked in the retry queue until the
	// service recovers.
	StateQuarantined
)

// String returns the lowercase state name.
func (s DeviceState) String() string {
	switch s {
	case StateAssessed:
		return "assessed"
	case StateQuarantined:
		return "quarantined"
	default:
		return "monitoring"
	}
}

// DeviceInfo is the gateway's view of one device.
type DeviceInfo struct {
	MAC          packet.MAC
	State        DeviceState
	Type         core.TypeID
	Level        sdn.IsolationLevel
	FirstSeen    time.Time
	AssessedAt   time.Time
	SetupPackets int
	// PermittedIPs are the remote endpoints a Restricted device may
	// reach (mirrors its enforcement rule, so the rule table can be
	// reconstructed from device state after a restart).
	PermittedIPs    []netip.Addr
	Vulnerabilities []vulndb.Record
	// QuarantinedAt is set while the device awaits a successful
	// re-assessment (zero otherwise).
	QuarantinedAt time.Time
	// AssessAttempts counts failed assessment attempts since the
	// device entered quarantine (reset on promotion).
	AssessAttempts int
}

// Notification is the user-facing alert of Sect. III-C3, raised when a
// device has vulnerabilities that isolation cannot mitigate.
type Notification struct {
	MAC     packet.MAC
	Type    core.TypeID
	Message string
}

// Config tunes the gateway.
type Config struct {
	// IdleGap ends a device's setup phase after this much silence
	// (default 10 s).
	IdleGap time.Duration
	// MaxSetupPackets caps the capture (default 300).
	MaxSetupPackets int
	// Shards stripes per-device state across this many locks (rounded
	// up to a power of two; 0 selects DefaultShards). Packets from
	// devices on different shards never contend; 1 reproduces the
	// single-lock gateway. Sharding never changes device states or
	// actions — only contention.
	Shards int
	// AssessQueue, when positive, moves identification off the packet
	// path: each shard gets a bounded queue of this depth and a drain
	// goroutine, HandlePacket enqueues finished captures instead of
	// assessing inline, and queue overflow parks the oldest pending
	// fingerprint in quarantine (drop-oldest, counted by the metrics
	// bundle) rather than ever blocking forwarding. 0 keeps the
	// synchronous behavior: the packet that completes a capture waits
	// for the assessment. Call Close to stop the drain goroutines.
	AssessQueue int
	// OnAssessed, if set, is called after each device assessment.
	OnAssessed func(DeviceInfo)
	// OnUnknown, if set, receives every assessed device no classifier
	// accepted, along with the fingerprint that went unrecognized — the
	// gateway-side feed of the online-learning loop (internal/learn).
	// Like OnAssessed it runs off the shard lock; keep it fast (hand
	// off to a queue) or assessments serialize behind it.
	OnUnknown func(DeviceInfo, fingerprint.Fingerprint)
	// OnNotify, if set, receives user notifications for devices whose
	// critical vulnerabilities have no firmware fix.
	OnNotify func(Notification)
	// OnQuarantined, if set, is called each time an assessment fails
	// and the device is isolated fail-closed pending retry.
	OnQuarantined func(DeviceInfo, error)
	// Keystore, if set, enables WPS credential management: every new
	// device is enrolled with a device-specific WPA2 PSK on first
	// sight (Sect. III-A), and legacy migration re-keys WPS-capable
	// devices (Sect. VIII-A).
	Keystore *wps.Keystore
	// Metrics, if set, receives device-state, quarantine, setup-
	// capture, queue and packet-latency instrumentation (see
	// NewMetrics).
	Metrics *Metrics
	// Store, if set, journals every device-lifecycle transition so a
	// restarted gateway can Recover its device states, quarantine
	// queue, and enforcement-rule table (see persist.go). nil keeps the
	// gateway ephemeral.
	Store *store.Store
	// OnStoreError, if set, receives journaling failures. Persistence
	// errors never interrupt the data path: the gateway keeps
	// enforcing with its in-memory state and reports the error here.
	OnStoreError func(error)
	// LearnState, if set, is sampled by Checkpoint so the online
	// learner's cluster state rides in the gateway's snapshot (the
	// journal segments the snapshot covers are unlinked, so the
	// snapshot must be self-contained). It is called without gateway
	// locks held.
	LearnState func() *store.LearnState
}

// quarantined is one parked fingerprint awaiting a retry.
type quarantined struct {
	fp    fingerprint.Fingerprint
	since time.Time
	// acked is set once the demotion that parked the fingerprint has
	// been acknowledged (durable, OnQuarantined returned). The retry
	// drain leaves the entry alone until then, so that a promotion is
	// never acknowledged ahead of the demotion it undoes.
	acked bool
}

// Gateway is the Security Gateway. Per-device state is striped across
// Config.Shards locks (see shard.go); the quarantine queue is global
// under its own mutex, locked only after any shard lock.
type Gateway struct {
	cfg      Config
	assessor iotssp.Assessor
	sw       *sdn.Switch

	shards    []*shard
	shardMask uint32

	// qmu guards quarantine. Lock order: shard.mu → qmu.
	qmu        sync.Mutex
	quarantine map[packet.MAC]*quarantined

	// async, when non-nil, is the off-path assessment pipeline
	// (Config.AssessQueue > 0). Close swaps it to nil; a capture that
	// finishes afterwards is assessed inline.
	async atomic.Pointer[asyncAssess]

	// checkpointHook is nil outside tests. Checkpoint calls it after
	// each shard's rows are written — mid-file, no lock held — so a test
	// can hold a snapshot open and show that nothing waits for it.
	checkpointHook func()
}

// New wires a gateway to its switch and the security service.
func New(assessor iotssp.Assessor, sw *sdn.Switch, cfg Config) *Gateway {
	n := shardCount(cfg.Shards)
	g := &Gateway{
		cfg:        cfg,
		assessor:   assessor,
		sw:         sw,
		shards:     make([]*shard, n),
		shardMask:  uint32(n - 1),
		quarantine: make(map[packet.MAC]*quarantined),
	}
	for i := range g.shards {
		g.shards[i] = newShard()
	}
	if cfg.AssessQueue > 0 {
		g.async.Store(newAsyncAssess(g, n, cfg.AssessQueue))
	}
	return g
}

// Switch exposes the enforcement switch.
func (g *Gateway) Switch() *sdn.Switch { return g.sw }

// Shards reports the resolved shard count.
func (g *Gateway) Shards() int { return len(g.shards) }

// HandlePacket is the gateway's data path: every frame from the local
// network passes through it. New MACs enter the monitoring state; when
// their setup phase completes, the fingerprint goes to the IoTSSP
// (inline, or via the bounded per-shard queue when Config.AssessQueue
// is set) and the returned isolation level is enforced. Devices still
// in their setup phase are forwarded without enforcement —
// identification happens during the natural induction procedure, and
// their flows are invalidated the moment the assessment lands.
//
// Only the shard owning pk.SrcMAC is locked, so concurrent calls for
// devices on different shards never contend.
func (g *Gateway) HandlePacket(ts time.Time, pk *packet.Packet) (sdn.Action, error) {
	idx := shardIndex(pk.SrcMAC, g.shardMask)
	s := g.shards[idx]
	// The latency histogram is a fixed 1-in-handleSampleEvery sample
	// per shard, starting with the shard's first frame: the other
	// frames read no clock (two clock reads cost about as much as the
	// rest of the forwarding path). Exact frame counts are
	// capture_frames_total and the sdn_switch_* counters.
	if g.cfg.Metrics == nil || s.tick.Add(1)%handleSampleEvery != 1 {
		return g.handlePacket(s, idx, ts, pk)
	}
	start := time.Now()
	act, err := g.handlePacket(s, idx, ts, pk)
	g.cfg.Metrics.observeHandle(time.Since(start))
	return act, err
}

func (g *Gateway) handlePacket(s *shard, idx uint32, ts time.Time, pk *packet.Packet) (sdn.Action, error) {
	s.mu.Lock()
	info := s.devices[pk.SrcMAC]
	if info == nil && !pk.SrcMAC.IsMulticast() {
		info = &DeviceInfo{MAC: pk.SrcMAC, State: StateMonitoring, FirstSeen: ts}
		s.devices[pk.SrcMAC] = info
		s.captures[pk.SrcMAC] = fingerprint.NewSetupCapture(g.cfg.IdleGap, g.cfg.MaxSetupPackets)
		g.cfg.Metrics.stateChange(0, StateMonitoring)
		g.cfg.Metrics.captureOpened()
		g.record(store.Event{Kind: store.EvCaptureStarted, MAC: pk.SrcMAC, At: ts, FirstSeen: ts})
		if g.cfg.Keystore != nil {
			// The device joined via WPS: issue its device-specific
			// WPA2 PSK (Sect. III-A).
			if _, err := g.cfg.Keystore.Enroll(pk.SrcMAC); err != nil {
				s.mu.Unlock()
				return sdn.ActionDrop, fmt.Errorf("gateway: enroll %v: %w", pk.SrcMAC, err)
			}
		}
	}
	if info == nil || info.State != StateMonitoring {
		// Assessed or quarantined — every frame of a device's life
		// after its first seconds — or a multicast source, which never
		// becomes a device: one lock hold, then enforcement.
		s.mu.Unlock()
		return g.sw.Process(pk, ts), nil
	}
	// Monitoring. The capture can be gone while the state is still
	// monitoring: a concurrent FinishSetup or capture sweep claimed it
	// (or the assessment queue holds it) and the result has not been
	// applied yet. Skip observation instead of nil-dereferencing the
	// capture.
	var finished *fingerprint.SetupCapture
	if cap := s.captures[pk.SrcMAC]; cap != nil {
		if done := cap.Observe(ts, pk); done {
			finished = cap
			delete(s.captures, pk.SrcMAC)
			g.cfg.Metrics.captureCompleted(triggerPacket)
		}
		info.SetupPackets = cap.Len()
	}
	s.mu.Unlock()

	if finished == nil {
		// Setup-phase traffic flows freely so the induction procedure
		// (and the fingerprint) completes.
		return sdn.ActionForward, nil
	}
	job := assessJob{mac: pk.SrcMAC, cap: finished, ts: ts}
	a := g.async.Load()
	if a != nil {
		// Off-path identification: park the fingerprint on the
		// shard's bounded queue and keep forwarding.
		a.enqueue(g, idx, job)
	} else {
		// An assessment failure quarantines the device (fail
		// closed) instead of wedging it in monitoring; the packet
		// then falls through to the switch under the strict
		// quarantine rule.
		job.assess(g)
	}
	s.mu.Lock()
	monitoring := info.State == StateMonitoring
	s.mu.Unlock()
	if !monitoring {
		return g.sw.Process(pk, ts), nil
	}
	if a != nil {
		// enqueue's send left the shard's drain worker next in line on
		// this processor, and a capture reader with a ring of frames
		// ahead of it does not stop: step aside, once per finished
		// capture, so the assessment starts now. Only after this frame's
		// action is settled — a yield before the re-read lets the verdict
		// land first, and the frame is then switched under the new rule
		// (a flow entry and a counted frame per join; DESIGN §10).
		runtime.Gosched()
	}
	return sdn.ActionForward, nil
}

// FinishSetup force-completes the setup phase of a monitored device
// (e.g. when the operator confirms induction ended) and assesses it. If
// the security service is unavailable the device is quarantined rather
// than lost; FinishSetup still returns nil in that case — inspect the
// device state to distinguish assessed from quarantined.
func (g *Gateway) FinishSetup(mac packet.MAC, now time.Time) error {
	s := g.shardOf(mac)
	s.mu.Lock()
	cap, ok := s.captures[mac]
	if ok {
		delete(s.captures, mac)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("gateway: device %v is not being monitored", mac)
	}
	g.cfg.Metrics.captureCompleted(triggerForced)
	assessJob{mac: mac, cap: cap, ts: now}.assess(g)
	return nil
}

// FinishAllSetups force-completes the setup phase of every device still
// being monitored, in MAC order whichever shard holds it, and assesses
// each (or quarantines it, if the service fails). It returns the number
// of captures finished. It is the bulk analogue of FinishSetup — use it
// when draining the monitoring queue (replay end, shutdown, operator
// "finish all").
func (g *Gateway) FinishAllSetups(now time.Time) int {
	return g.finishCaptures(now, triggerForced, func(*fingerprint.SetupCapture) bool { return true })
}

// FinalizeIdleCaptures completes the setup phase of monitored devices
// whose capture has been idle past its IdleGap. Completion is normally
// detected on the device's *next* packet; a device that sends a few
// packets and goes silent would otherwise pin its capture forever, so
// the expiry worker sweeps these. Returns the number of devices
// finalized (each is assessed, or quarantined if the service is down).
func (g *Gateway) FinalizeIdleCaptures(now time.Time) int {
	return g.finishCaptures(now, triggerIdle, func(cap *fingerprint.SetupCapture) bool {
		return cap.Len() > 0 && now.Sub(cap.LastSeen()) >= cap.IdleGap
	})
}

// finishCaptures claims every capture done selects, one shard at a time,
// and assesses them in MAC order. It returns how many it claimed.
func (g *Gateway) finishCaptures(now time.Time, trigger captureTrigger, done func(*fingerprint.SetupCapture) bool) int {
	var jobs []assessJob
	for _, s := range g.shards {
		s.mu.Lock()
		for mac, cap := range s.captures {
			if done(cap) {
				jobs = append(jobs, assessJob{mac: mac, cap: cap, ts: now})
				delete(s.captures, mac)
				g.cfg.Metrics.captureCompleted(trigger)
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(jobs, func(a, b assessJob) int { return a.mac.Compare(b.mac) })
	for _, job := range jobs {
		job.assess(g)
	}
	return len(jobs)
}

// quarantineDevice isolates a device whose assessment failed: a strict
// fail-closed rule replaces whatever was installed, the device enters
// StateQuarantined, and its fingerprint is parked (queue permitting)
// for the retry worker to drain once the service recovers. A device
// that left while the assessment was in flight stays gone (see apply).
func (g *Gateway) quarantineDevice(mac packet.MAC, fp *fingerprint.Fingerprint, now time.Time, cause error) {
	s := g.shardOf(mac)
	s.mu.Lock()
	info := s.devices[mac]
	if info == nil {
		s.mu.Unlock()
		return
	}
	g.sw.Controller().Quarantine(mac)
	g.sw.InvalidateDevice(mac)
	g.cfg.Metrics.stateChange(info.State, StateQuarantined)
	info.State = StateQuarantined
	info.Level = sdn.Strict
	if info.QuarantinedAt.IsZero() {
		info.QuarantinedAt = now
	}
	info.AssessAttempts++
	// Journaled durably: losing a demotion to a crash would bring the
	// device back unrestricted. The strict rule is already installed;
	// the fsync is waited for below, with the shard lock released.
	seq := g.record(store.Event{
		Kind:         store.EvQuarantined,
		MAC:          mac,
		At:           now,
		FirstSeen:    info.FirstSeen,
		Attempts:     info.AssessAttempts,
		SetupPackets: info.SetupPackets,
		Fingerprint:  fp.F,
	})
	g.qmu.Lock()
	q := g.quarantine[mac]
	if q != nil {
		q.fp, q.acked = *fp, false
	} else if len(g.quarantine) < maxQuarantined {
		q = &quarantined{fp: *fp, since: now}
		g.quarantine[mac] = q
	}
	g.cfg.Metrics.incAssess(false)
	g.cfg.Metrics.setQuarantineDepth(len(g.quarantine))
	g.qmu.Unlock()
	snapshot := *info
	s.mu.Unlock()

	g.awaitDurable(seq)
	if g.cfg.OnQuarantined != nil {
		g.cfg.OnQuarantined(snapshot, cause)
	}
	if q != nil {
		g.qmu.Lock()
		q.acked = true
		g.qmu.Unlock()
	}
}

// maxQuarantined bounds the quarantine retry queue. Devices quarantined
// beyond the bound stay isolated at strict but are not retried
// automatically; the operator can remove and re-introduce them.
const maxQuarantined = 1024

// QuarantineLen returns the number of fingerprints parked for retry.
func (g *Gateway) QuarantineLen() int {
	g.qmu.Lock()
	defer g.qmu.Unlock()
	return len(g.quarantine)
}

// RetryQuarantined re-submits parked fingerprints to the security
// service in MAC order, promoting each device to its assessed state on
// success. The drain stops at the first failure — the service is
// evidently still down (or its circuit breaker is open), so hammering
// the rest of the queue would only burn backoff budget. It returns the
// number of devices promoted and the error that stopped the drain.
func (g *Gateway) RetryQuarantined(now time.Time) (int, error) {
	g.qmu.Lock()
	macs := make([]packet.MAC, 0, len(g.quarantine))
	for mac, q := range g.quarantine {
		if q.acked {
			macs = append(macs, mac)
		}
	}
	slices.SortFunc(macs, packet.MAC.Compare)
	entries := make([]*quarantined, len(macs))
	fps := make([]fingerprint.Fingerprint, len(macs))
	for i, mac := range macs {
		entries[i] = g.quarantine[mac]
		fps[i] = entries[i].fp
	}
	g.qmu.Unlock()

	promoted := 0
	for i, mac := range macs {
		a, err := g.assessor.Assess(fps[i])
		if err != nil {
			g.cfg.Metrics.incRetry(false)
			s := g.shardOf(mac)
			s.mu.Lock()
			if info := s.devices[mac]; info != nil && info.State == StateQuarantined {
				info.AssessAttempts++
			}
			s.mu.Unlock()
			return promoted, err
		}
		// Claim the entry before applying: whoever takes it out of the
		// queue promotes the device, so a parallel drain holding an
		// assessment for the same entry skips it, as does one whose
		// entry RemoveDevice (or a removal and re-quarantine) replaced.
		g.qmu.Lock()
		claimed := g.quarantine[mac] == entries[i]
		if claimed {
			delete(g.quarantine, mac)
		}
		g.qmu.Unlock()
		if !claimed {
			continue
		}
		g.apply(mac, a, &fps[i], now)
		g.cfg.Metrics.incRetry(true)
		promoted++
	}
	return promoted, nil
}

// apply installs the enforcement rule for one assessment and fires the
// gateway callbacks. fp is the fingerprint the assessment answered,
// threaded through so an unrecognized device can hand its evidence to
// the online learner; it is nil for a legacy device's standby
// fingerprint, which the learner must not see.
//
// The verdict is for the device that was there when the assessment
// began. Over the remote call that is a round trip ago — Timeout ×
// attempts ago when the service is down — and RemoveDevice may have
// landed since: then the verdict is dropped, with no state, rule,
// journal record or callback, instead of resurrecting the device. The
// rule goes in under the shard lock (order: shard.mu → rule cache, flow
// table; nothing takes them the other way round — Switch.Process runs
// after the shard unlock), so a RemoveDevice that finds the device evicts
// its rule after this put, never before it. A device that left *and
// rejoined* inside one in-flight call still takes the old incarnation's
// verdict: telling the two apart needs an incarnation identity, which is
// ROADMAP item 2's.
func (g *Gateway) apply(mac packet.MAC, a iotssp.Assessment, fp *fingerprint.Fingerprint, now time.Time) {
	s := g.shardOf(mac)
	s.mu.Lock()
	info := s.devices[mac]
	if info == nil {
		s.mu.Unlock()
		return
	}
	g.sw.Controller().Rules().Put(&sdn.EnforcementRule{
		DeviceMAC:    mac,
		Level:        a.Level,
		PermittedIPs: a.PermittedIPs,
		DeviceType:   string(a.Type),
	})
	g.sw.InvalidateDevice(mac)
	kind := store.EvAssessed
	if info.State == StateQuarantined {
		kind = store.EvPromoted
	}
	g.cfg.Metrics.stateChange(info.State, StateAssessed)
	info.State = StateAssessed
	info.Type = a.Type
	info.Level = a.Level
	info.AssessedAt = now
	info.Vulnerabilities = a.Vulnerabilities
	info.PermittedIPs = append([]netip.Addr(nil), a.PermittedIPs...)
	info.QuarantinedAt = time.Time{}
	info.AssessAttempts = 0
	g.record(store.Event{
		Kind:         kind,
		MAC:          mac,
		At:           now,
		FirstSeen:    info.FirstSeen,
		Type:         string(a.Type),
		Level:        int(a.Level),
		PermittedIPs: a.PermittedIPs,
		Vulns:        a.Vulnerabilities,
		SetupPackets: info.SetupPackets,
	})
	g.qmu.Lock()
	delete(g.quarantine, mac)
	g.cfg.Metrics.incAssess(true)
	g.cfg.Metrics.setQuarantineDepth(len(g.quarantine))
	g.qmu.Unlock()
	snapshot := *info
	s.mu.Unlock()

	if g.cfg.OnAssessed != nil {
		g.cfg.OnAssessed(snapshot)
	}
	if !a.Known && fp != nil && g.cfg.OnUnknown != nil {
		g.cfg.OnUnknown(snapshot, *fp)
	}
	if g.cfg.OnNotify != nil {
		for _, v := range a.Vulnerabilities {
			if v.Severity >= vulndb.SeverityCritical && !v.FixedInUpdate {
				g.cfg.OnNotify(Notification{
					MAC:  mac,
					Type: a.Type,
					Message: fmt.Sprintf(
						"device %v (%s) has an unfixable %s vulnerability (%s); remove it from the network",
						mac, a.Type, v.Severity, v.ID),
				})
			}
		}
	}
}

// RemoveDevice forgets a device that left the network: its enforcement
// rule and installed flows are evicted (the rule-cache pruning the
// paper describes for departed devices).
func (g *Gateway) RemoveDevice(mac packet.MAC) {
	s := g.shardOf(mac)
	var seq uint64
	s.mu.Lock()
	if info := s.devices[mac]; info != nil {
		g.cfg.Metrics.stateChange(info.State, 0)
		seq = g.record(store.Event{Kind: store.EvRemoved, MAC: mac, At: time.Now()})
	}
	delete(s.devices, mac)
	delete(s.captures, mac)
	g.qmu.Lock()
	delete(g.quarantine, mac)
	g.cfg.Metrics.setQuarantineDepth(len(g.quarantine))
	g.qmu.Unlock()
	s.mu.Unlock()
	// The removal is durable before its rule goes: a crash in between
	// recovers the device as gone (no rule ⇒ strict), never the reverse.
	g.awaitDurable(seq)
	g.sw.Controller().Rules().Remove(mac)
	g.sw.ForgetDevice(mac)
	if g.cfg.Keystore != nil {
		g.cfg.Keystore.Revoke(mac)
	}
}

// Device returns the gateway's view of one device.
func (g *Gateway) Device(mac packet.MAC) (DeviceInfo, bool) {
	s := g.shardOf(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.devices[mac]
	if !ok {
		return DeviceInfo{}, false
	}
	return *info, true
}

// Devices returns all known devices sorted by MAC.
func (g *Gateway) Devices() []DeviceInfo {
	var out []DeviceInfo
	for _, s := range g.shards {
		s.mu.Lock()
		for _, info := range s.devices {
			out = append(out, *info)
		}
		s.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b DeviceInfo) int { return a.MAC.Compare(b.MAC) })
	return out
}
