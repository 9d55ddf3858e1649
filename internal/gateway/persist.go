package gateway

import (
	"fmt"
	"slices"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
)

// Durable state & crash recovery. With Config.Store set, every device
// lifecycle transition is enqueued in the journal as it happens (inside
// the owning shard's critical section, so journal order matches state
// order; lock order stays shard.mu → store) — enqueued, not
// written: no shard lock is held across a disk write or an fsync. A
// demotion (quarantine, removal) is waited for with the lock released
// and acknowledged only once it is durable (DESIGN §11 states the
// ordering). Recover rebuilds the device records, their parked
// fingerprints, *and* the SDN rule table from the snapshot + journal, so
// enforcement after a crash matches enforcement before it — or fails
// closed:
//
//   - A device that was mid-monitoring lost its setup capture with the
//     process; it is demoted to strict quarantine rather than left in
//     a monitoring state that would forward its traffic forever.
//   - A degraded recovery (corrupt journal record or unreadable
//     snapshot — see store.Recovery.Degraded) demotes every recovered
//     device to strict quarantine: the lost suffix may have hidden a
//     demotion, so nothing recovered keeps network access on trust.
//     Parked fingerprints stay in the retry queue, so the retry worker
//     re-promotes what the service still vouches for.

// storeError reports a persistence failure to Config.OnStoreError.
// Persistence failures never interrupt the data path: the gateway keeps
// enforcing from memory. The callback may run with shard locks held — it
// must not call back into the gateway.
func (g *Gateway) storeError(err error) {
	if err != nil && g.cfg.OnStoreError != nil {
		g.cfg.OnStoreError(err)
	}
}

// record enqueues one lifecycle event in the journal and returns its
// sequence number (0 when there is nothing to wait for).
func (g *Gateway) record(ev store.Event) uint64 {
	if g.cfg.Store == nil {
		return 0
	}
	seq, err := g.cfg.Store.Enqueue(ev)
	g.storeError(err)
	return seq
}

// awaitDurable blocks until the demotion record returned as seq is on
// disk. The caller has released its shard lock and has not yet
// acknowledged the demotion.
func (g *Gateway) awaitDurable(seq uint64) {
	if seq != 0 {
		g.storeError(g.cfg.Store.WaitDurable(seq))
	}
}

// RecoveryStats summarizes what Recover rebuilt.
type RecoveryStats struct {
	// Devices is the total number of devices restored.
	Devices int
	// Assessed / Quarantined split Devices by recovered state.
	Assessed    int
	Quarantined int
	// Demoted counts fail-closed demotions: devices that were
	// monitoring at the crash (their capture died with the process) and
	// every formerly-assessed device of a degraded recovery.
	Demoted int
	// Retryable is the number of fingerprints restored into the
	// quarantine retry queue.
	Retryable int
	// Replayed is the number of journal events applied on top of the
	// snapshot.
	Replayed int
	// Rules is the number of enforcement rules reconciled into the
	// switch.
	Rules int
	// Degraded mirrors store.Recovery.Degraded.
	Degraded bool
}

func (s RecoveryStats) String() string {
	mode := "clean"
	if s.Degraded {
		mode = "DEGRADED (fail-closed)"
	}
	return fmt.Sprintf("%d devices (%d assessed, %d quarantined, %d demoted fail-closed), %d retryable, %d events replayed, %d rules, %s",
		s.Devices, s.Assessed, s.Quarantined, s.Demoted, s.Retryable, s.Replayed, s.Rules, mode)
}

// parseState maps a journaled state name back to its DeviceState.
func parseState(s string) (DeviceState, error) {
	switch s {
	case StateMonitoring.String():
		return StateMonitoring, nil
	case StateAssessed.String():
		return StateAssessed, nil
	case StateQuarantined.String():
		return StateQuarantined, nil
	default:
		return 0, fmt.Errorf("gateway: unknown device state %q", s)
	}
}

// Recover rebuilds the gateway from what store.Open found on disk and
// replays enforcement through the switch so the rule table matches
// pre-crash isolation levels. It must run on a fresh gateway, before
// any traffic. Individual malformed records are skipped (fail-closed:
// a device whose record is unusable ends up with no rule, which the
// controller treats as strict); Recover only errors on misuse.
func (g *Gateway) Recover(rec *store.Recovery, now time.Time) (RecoveryStats, error) {
	var stats RecoveryStats
	if rec == nil {
		return stats, nil
	}
	for _, s := range g.shards {
		s.mu.Lock()
		n := len(s.devices)
		s.mu.Unlock()
		if n > 0 {
			return stats, fmt.Errorf("gateway: Recover on a non-empty gateway")
		}
	}
	stats.Degraded = rec.Degraded

	devices := make(map[packet.MAC]*device)

	if rec.Snapshot != nil {
		for _, d := range rec.Snapshot.Devices {
			st, err := parseState(d.State)
			if err != nil {
				continue // unusable record: device falls back to no-rule strict
			}
			devices[d.MAC] = &device{info: DeviceInfo{
				MAC:             d.MAC,
				State:           st,
				Type:            core.TypeID(d.Type),
				Level:           sdn.IsolationLevel(d.Level),
				FirstSeen:       d.FirstSeen,
				AssessedAt:      d.AssessedAt,
				QuarantinedAt:   d.QuarantinedAt,
				SetupPackets:    d.SetupPackets,
				AssessAttempts:  d.AssessAttempts,
				PermittedIPs:    d.PermittedIPs,
				Vulnerabilities: d.Vulnerabilities,
			}}
		}
		for _, q := range rec.Snapshot.Quarantine {
			d := devices[q.MAC]
			fp, err := fingerprint.FromF(q.Fingerprint)
			if d == nil || err != nil {
				continue // no device to park it on, or not retryable
			}
			d.parked = &quarantined{f: fp.F, since: q.Since, acked: true}
		}
	}

	// at returns ev's device, created monitoring by its first event.
	at := func(ev *store.Event) *device {
		d := devices[ev.MAC]
		if d == nil {
			d = &device{info: DeviceInfo{MAC: ev.MAC, State: StateMonitoring, FirstSeen: ev.FirstSeen}}
			devices[ev.MAC] = d
		}
		return d
	}
	for i := range rec.Events {
		ev := &rec.Events[i]
		stats.Replayed++
		switch ev.Kind {
		case store.EvCaptureStarted:
			at(ev)
		case store.EvAssessed, store.EvPromoted:
			d := at(ev)
			info := &d.info
			info.State = StateAssessed
			info.Type = core.TypeID(ev.Type)
			info.Level = sdn.IsolationLevel(ev.Level)
			info.AssessedAt = ev.At
			info.PermittedIPs = ev.PermittedIPs
			info.Vulnerabilities = ev.Vulns
			info.SetupPackets = ev.SetupPackets
			info.QuarantinedAt = time.Time{}
			info.AssessAttempts = 0
			d.parked = nil
		case store.EvQuarantined:
			d := at(ev)
			info := &d.info
			info.State = StateQuarantined
			info.Level = sdn.Strict
			if info.QuarantinedAt.IsZero() {
				info.QuarantinedAt = ev.At
			}
			info.AssessAttempts = ev.Attempts
			info.SetupPackets = ev.SetupPackets
			if fp, err := fingerprint.FromF(ev.Fingerprint); err == nil {
				d.parked = &quarantined{f: fp.F, since: ev.At, acked: true}
			}
		case store.EvRemoved:
			delete(devices, ev.MAC)
		}
	}

	// Fail-closed sweep. Monitoring devices lost their capture with the
	// crashed process: left monitoring they would forward unenforced
	// forever, so they demote to strict quarantine (not retryable — no
	// fingerprint survives; the operator removes and re-inducts them).
	// In a degraded recovery the journal suffix is untrustworthy, so
	// every device demotes; the parked fingerprints stay retryable and
	// the retry worker restores whatever the service still vouches for.
	for _, d := range devices {
		info := &d.info
		demote := info.State == StateMonitoring || (rec.Degraded && info.State == StateAssessed)
		if !demote {
			continue
		}
		stats.Demoted++
		info.State = StateQuarantined
		info.Level = sdn.Strict
		if info.QuarantinedAt.IsZero() {
			info.QuarantinedAt = now
		}
		info.PermittedIPs = nil
	}

	// Install: device records into their shards, each quarantined one
	// with its parked fingerprint (in MAC order up to the bound), and
	// enforcement into the switch.
	macs := make([]packet.MAC, 0, len(devices))
	for mac := range devices {
		macs = append(macs, mac)
	}
	slices.SortFunc(macs, packet.MAC.Compare)
	for _, mac := range macs {
		d := devices[mac]
		info := &d.info
		q := d.parked
		d.parked = nil
		s := g.shardOf(mac)
		s.mu.Lock()
		s.devices[mac.Word()] = d
		g.cfg.Metrics.stateChange(0, info.State)
		if q != nil && info.State == StateQuarantined && g.setParked(d, q) {
			stats.Retryable++
		}
		s.mu.Unlock()
		stats.Devices++
		switch info.State {
		case StateAssessed:
			stats.Assessed++
			g.sw.Controller().Rules().Put(&sdn.EnforcementRule{
				DeviceMAC:    mac,
				Level:        info.Level,
				PermittedIPs: info.PermittedIPs,
				DeviceType:   string(info.Type),
			})
		default:
			stats.Quarantined++
			g.sw.Controller().Quarantine(mac)
		}
		g.sw.InvalidateDevice(mac)
		stats.Rules++
	}
	return stats, nil
}

// Checkpoint snapshots the gateway's durable state and retires the
// journal segments it covers, beside live traffic: the store fixes the
// snapshot's sequence number before anything is collected (so
// transitions racing the checkpoint stay in the journal and replay
// idempotently on top of it), each shard is locked only while its
// devices and their parked fingerprints are copied into scratch slices,
// and rows are encoded and written with no gateway or store lock held.
func (g *Gateway) Checkpoint() error {
	st := g.cfg.Store
	if st == nil {
		return nil
	}
	return st.Checkpoint(func(w *store.SnapshotWriter) error {
		if g.cfg.LearnState != nil {
			if err := w.Learn(g.cfg.LearnState()); err != nil {
				return err
			}
		}
		var devices []store.DeviceRecord
		var parked []store.QuarantineRecord
		for _, s := range g.shards {
			devices, parked = devices[:0], parked[:0]
			s.mu.Lock()
			for _, rec := range s.devices {
				info := &rec.info
				devices = append(devices, store.DeviceRecord{
					MAC:             info.MAC,
					State:           info.State.String(),
					Type:            string(info.Type),
					Level:           int(info.Level),
					PermittedIPs:    info.PermittedIPs,
					Vulnerabilities: info.Vulnerabilities,
					FirstSeen:       info.FirstSeen,
					AssessedAt:      info.AssessedAt,
					QuarantinedAt:   info.QuarantinedAt,
					SetupPackets:    info.SetupPackets,
					AssessAttempts:  info.AssessAttempts,
				})
				if q := rec.parked; q != nil {
					parked = append(parked, store.QuarantineRecord{MAC: info.MAC, Since: q.since, Fingerprint: q.f})
				}
			}
			s.mu.Unlock()
			for i := range devices {
				if err := w.Device(&devices[i]); err != nil {
					return err
				}
			}
			for i := range parked {
				if err := w.Quarantine(&parked[i]); err != nil {
					return err
				}
			}
			if g.checkpointHook != nil {
				g.checkpointHook()
			}
		}
		return nil
	})
}

// Shutdown is the graceful stop: the caller has already stopped
// feeding packets; Shutdown drains the asynchronous assessment
// pipeline (pending fingerprints finish identifying instead of being
// dumped into quarantine), closes it, and checkpoints the final state
// so the next boot recovers it without journal replay.
func (g *Gateway) Shutdown() error {
	g.WaitAssessIdle()
	g.Close()
	return g.Checkpoint()
}
