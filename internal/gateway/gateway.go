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
	// reconstructed from device state after a restart). It and
	// Vulnerabilities are the assessment's slices, shared with every
	// device of the type and read-only (iotssp.Assessment).
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
	// OnNotify, if set, receives user notifications for devices whose
	// critical vulnerabilities have no firmware fix.
	OnNotify func(Notification)
	// OnQuarantined, if set, is called each time an assessment fails
	// and the device is isolated fail-closed pending retry.
	OnQuarantined func(DeviceInfo, error)
	// Keystore, if set, enables WPS credential management: every new
	// device is enrolled with a device-specific WPA2 PSK on first
	// sight (Sect. III-A) and revoked when RemoveDevice drops it.
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

// quarantined is one parked fingerprint awaiting a retry. Its owner's
// device record holds it, and its owner's shard lock guards it. It keeps
// F alone (8 B a row, where a whole Fingerprint is 2 240 B): the retry
// derives F′ again for the one Assess call it makes.
type quarantined struct {
	f     fingerprint.F
	since time.Time
	// acked is set once the demotion that parked the fingerprint has
	// been acknowledged (durable, OnQuarantined returned). The retry
	// drain leaves the entry alone until then, so that a promotion is
	// never acknowledged ahead of the demotion it undoes.
	acked bool
}

// Gateway is the Security Gateway. Per-device state is striped across
// Config.Shards locks (see shard.go).
type Gateway struct {
	cfg      Config
	assessor iotssp.Assessor
	sw       *sdn.Switch

	shards     []*shard
	shardShift uint8 // packet.MACWord.Part's, for len(shards)

	// parked counts the records holding a parked fingerprint, all shards.
	parked atomic.Int64

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
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	n, shift := packet.Parts(n)
	g := &Gateway{
		cfg:        cfg,
		assessor:   assessor,
		sw:         sw,
		shards:     make([]*shard, n),
		shardShift: shift,
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
	key := pk.SrcMAC.Word()
	idx := key.Part(g.shardShift)
	s := g.shards[idx]
	// The latency histogram is a fixed 1-in-handleSampleEvery sample
	// per shard, starting with the shard's first frame: the other
	// frames read no clock (two clock reads cost about as much as the
	// rest of the forwarding path). Exact frame counts are
	// capture_frames_total and the sdn_switch_* counters.
	if g.cfg.Metrics == nil || s.tick.Add(1)%handleSampleEvery != 1 {
		return g.handlePacket(s, idx, key, ts, pk)
	}
	start := time.Now()
	act, err := g.handlePacket(s, idx, key, ts, pk)
	g.cfg.Metrics.observeHandle(time.Since(start))
	return act, err
}

func (g *Gateway) handlePacket(s *shard, idx int, key packet.MACWord, ts time.Time, pk *packet.Packet) (sdn.Action, error) {
	s.mu.Lock()
	rec := s.devices[key]
	if rec == nil && !pk.SrcMAC.IsMulticast() {
		rec = &device{
			info: DeviceInfo{MAC: pk.SrcMAC, State: StateMonitoring, FirstSeen: ts},
			cap:  fingerprint.NewSetupCapture(g.cfg.IdleGap, 0),
		}
		s.devices[key] = rec
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
	if rec == nil || rec.info.State != StateMonitoring {
		// Assessed or quarantined — every frame of a device's life
		// after its first seconds — or a multicast source, which never
		// becomes a device: one lock hold, then enforcement.
		s.mu.Unlock()
		return g.sw.Process(pk, ts), nil
	}
	// Monitoring. Between the claim of its capture and its verdict a
	// device's frames are forwarded unobserved.
	var finished *fingerprint.SetupCapture
	if cap := rec.cap; cap != nil {
		if done := cap.Observe(ts, pk); done {
			finished, rec.cap = cap, nil
			g.cfg.Metrics.captureCompleted(triggerPacket)
		}
		rec.info.SetupPackets = cap.Len()
	}
	s.mu.Unlock()

	if finished == nil {
		// Setup-phase traffic flows freely so the induction procedure
		// (and the fingerprint) completes.
		return sdn.ActionForward, nil
	}
	job := assessJob{owner: rec, cap: finished, ts: ts}
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
	monitoring := rec.info.State == StateMonitoring
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
	rec := s.devices[mac.Word()]
	var cap *fingerprint.SetupCapture
	if rec != nil {
		cap, rec.cap = rec.cap, nil
	}
	s.mu.Unlock()
	if cap == nil {
		return fmt.Errorf("gateway: device %v is not being monitored", mac)
	}
	g.cfg.Metrics.captureCompleted(triggerForced)
	assessJob{owner: rec, cap: cap, ts: now}.assess(g)
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
		for _, rec := range s.devices {
			if rec.cap != nil && done(rec.cap) {
				jobs = append(jobs, assessJob{owner: rec, cap: rec.cap, ts: now})
				rec.cap = nil
				g.cfg.Metrics.captureCompleted(trigger)
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(jobs, func(a, b assessJob) int { return a.owner.info.MAC.Compare(b.owner.info.MAC) })
	for _, job := range jobs {
		job.assess(g)
	}
	return len(jobs)
}

// lockOwner locks owner's shard and returns it while the MAC still maps
// to owner and owner holds parked (nil for a capture's verdict: only
// that verdict parks an incarnation). Otherwise it returns nil, unlocked:
// the verdict is for an incarnation that left or was already promoted.
func (g *Gateway) lockOwner(owner *device, parked *quarantined) *shard {
	s := g.shardOf(owner.info.MAC)
	s.mu.Lock()
	if s.devices[owner.info.MAC.Word()] != owner || owner.parked != parked {
		s.mu.Unlock()
		return nil
	}
	return s
}

// setParked replaces rec's parked fingerprint with q (nil unparks it)
// and keeps the count; a new entry past maxQuarantined is refused. The
// caller holds rec's shard lock.
func (g *Gateway) setParked(rec *device, q *quarantined) bool {
	d := int64(0)
	if q != nil {
		d++
	}
	if rec.parked != nil {
		d--
	}
	if d == 0 {
		// No change in the count: every shard writes that word, so
		// an unparked verdict or removal leaves it alone.
		rec.parked = q
		return true
	}
	if g.parked.Add(d) > maxQuarantined {
		g.parked.Add(-d)
		return false
	}
	rec.parked = q
	g.cfg.Metrics.quarantineDepthAdd(d)
	return true
}

// quarantineDevice isolates a device whose assessment failed: a strict
// fail-closed rule replaces whatever was installed, the device enters
// StateQuarantined, and its fingerprint is parked (queue permitting)
// for the retry worker to drain once the service recovers. Like apply,
// it acts only on the incarnation the failed capture came from.
func (g *Gateway) quarantineDevice(owner *device, fp *fingerprint.Fingerprint, now time.Time, cause error) {
	s := g.lockOwner(owner, nil)
	if s == nil {
		return
	}
	info := &owner.info
	g.sw.Controller().Quarantine(info.MAC)
	g.sw.InvalidateDevice(info.MAC)
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
		MAC:          info.MAC,
		At:           now,
		FirstSeen:    info.FirstSeen,
		Attempts:     info.AssessAttempts,
		SetupPackets: info.SetupPackets,
		Fingerprint:  fp.F,
	})
	q := &quarantined{f: fp.F, since: now}
	if !g.setParked(owner, q) {
		q = nil
	}
	g.cfg.Metrics.incAssess(false)
	snapshot := *info
	s.mu.Unlock()

	g.awaitDurable(seq)
	if g.cfg.OnQuarantined != nil {
		g.cfg.OnQuarantined(snapshot, cause)
	}
	if q != nil {
		s.mu.Lock()
		q.acked = true
		s.mu.Unlock()
	}
}

// maxQuarantined bounds the quarantine retry queue. Devices quarantined
// beyond the bound stay isolated at strict but are not retried
// automatically; the operator can remove and re-introduce them.
const maxQuarantined = 1024

// QuarantineLen returns the number of fingerprints parked for retry.
func (g *Gateway) QuarantineLen() int { return int(g.parked.Load()) }

// RetryQuarantined re-submits parked fingerprints to the security
// service in MAC order, promoting each device to its assessed state on
// success. The drain stops at the first failure — the service is
// evidently still down (or its circuit breaker is open), so hammering
// the rest of the queue would only burn backoff budget. It returns the
// number of devices promoted and the error that stopped the drain.
func (g *Gateway) RetryQuarantined(now time.Time) (int, error) {
	type retry struct {
		owner *device
		entry *quarantined
	}
	var due []retry
	for _, s := range g.shards {
		s.mu.Lock()
		for _, rec := range s.devices {
			if q := rec.parked; q != nil && q.acked {
				due = append(due, retry{rec, q})
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(due, func(a, b retry) int { return a.owner.info.MAC.Compare(b.owner.info.MAC) })

	promoted := 0
	for _, r := range due {
		// A parked F is some Fingerprint's F (a capture's, or one Recover
		// checked with FromF), so FromPacked rebuilds that value.
		fp := fingerprint.FromPacked(r.entry.f)
		a, err := g.assessor.Assess(fp)
		if err != nil {
			g.cfg.Metrics.incRetry(false)
			if s := g.lockOwner(r.owner, r.entry); s != nil {
				r.owner.info.AssessAttempts++
				s.mu.Unlock()
			}
			return promoted, err
		}
		// apply claims the entry: a parallel drain holding a verdict for
		// it, or for an owner RemoveDevice dropped, applies nothing.
		if g.apply(r.owner, r.entry, a, now) {
			g.cfg.Metrics.incRetry(true)
			promoted++
		}
	}
	return promoted, nil
}

// apply installs the enforcement rule for one assessment and fires the
// gateway callbacks, and reports whether it did. parked is the entry it
// came from on a retry, nil for a capture's first verdict.
//
// The verdict is for the incarnation whose fingerprint it answered, and
// over the remote call that was a round trip ago — Timeout × attempts
// ago when the service is down. If RemoveDevice landed since, or the
// device left and rejoined as a new record, the verdict is dropped (see
// lockOwner): no state, rule, journal record, callback or metric. The
// rule goes in under the shard lock (order: shard.mu → rule cache, flow
// table; nothing takes them the other way round — Switch.Process runs
// after the shard unlock), so a RemoveDevice that finds the device evicts
// its rule after this put, never before it.
func (g *Gateway) apply(owner *device, parked *quarantined, a iotssp.Assessment, now time.Time) bool {
	s := g.lockOwner(owner, parked)
	if s == nil {
		return false
	}
	info := &owner.info
	mac := info.MAC
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
	info.PermittedIPs = a.PermittedIPs
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
	g.setParked(owner, nil)
	g.cfg.Metrics.incAssess(true)
	snapshot := *info
	s.mu.Unlock()

	if g.cfg.OnAssessed != nil {
		g.cfg.OnAssessed(snapshot)
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
	return true
}

// RemoveDevice forgets a device that left the network: its record goes
// with its capture and parked fingerprint, and its enforcement rule and
// installed flows are evicted (the rule-cache pruning the paper
// describes for departed devices).
func (g *Gateway) RemoveDevice(mac packet.MAC) {
	s := g.shardOf(mac)
	var seq uint64
	s.mu.Lock()
	key := mac.Word()
	if rec := s.devices[key]; rec != nil {
		g.cfg.Metrics.stateChange(rec.info.State, 0)
		seq = g.record(store.Event{Kind: store.EvRemoved, MAC: mac, At: time.Now()})
		g.setParked(rec, nil)
		delete(s.devices, key)
	}
	s.mu.Unlock()
	// The removal is durable before its rule goes: a crash in between
	// recovers the device as gone (no rule ⇒ strict), never the reverse.
	// A device that rejoined on the MAC meanwhile and already has its
	// verdict keeps the rule that verdict installed.
	g.awaitDurable(seq)
	s.mu.Lock()
	if rec := s.devices[key]; rec == nil || rec.info.State == StateMonitoring {
		g.sw.Controller().Rules().Remove(mac)
	}
	s.mu.Unlock()
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
	rec, ok := s.devices[mac.Word()]
	if !ok {
		return DeviceInfo{}, false
	}
	return rec.info, true
}

// Devices returns all known devices sorted by MAC.
func (g *Gateway) Devices() []DeviceInfo {
	var out []DeviceInfo
	for _, s := range g.shards {
		s.mu.Lock()
		for _, rec := range s.devices {
			out = append(out, rec.info)
		}
		s.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b DeviceInfo) int { return a.MAC.Compare(b.MAC) })
	return out
}
