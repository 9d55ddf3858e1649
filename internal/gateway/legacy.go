package gateway

import (
	"fmt"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// LegacyDevice describes a device that was already installed before the
// Security Gateway was deployed (Sect. VIII-A): its setup phase was
// never observed, so identification uses a standby-traffic fingerprint,
// and migration into the trusted overlay depends on whether the device
// supports WPS re-keying.
type LegacyDevice struct {
	MAC packet.MAC
	// Fingerprint is built from the device's standby traffic.
	Fingerprint fingerprint.Fingerprint
	// SupportsWPS reports whether the device can obtain a new
	// device-specific PSK through WPS re-keying.
	SupportsWPS bool
}

// LegacyOutcome reports the migration decision for one legacy device.
type LegacyOutcome struct {
	MAC   packet.MAC
	Type  string
	Level sdn.IsolationLevel
	// Migrated reports whether the device moved to the trusted
	// overlay (requires a clean assessment and WPS re-keying).
	Migrated bool
	// ManualReauthRequired is set for clean devices that cannot
	// re-key: the gateway keeps them untrusted and the user may
	// re-introduce them manually (Sect. VIII-A option 1).
	ManualReauthRequired bool
	// PSKFingerprint is a short digest of the freshly issued
	// device-specific key when a keystore is configured and the device
	// migrated.
	PSKFingerprint string
}

// MigrateLegacy implements the legacy-installation support of
// Sect. VIII-A. All legacy devices start in the untrusted overlay
// (their network may have a leaked PSK). Each device is identified from
// its standby fingerprint and assessed:
//
//   - clean + WPS re-keying supported: the device receives a fresh
//     device-specific PSK and moves to the trusted overlay;
//   - clean but no WPS: the device stays untrusted and is flagged for
//     manual re-introduction;
//   - vulnerable or unknown: the device stays untrusted at its
//     assessed level.
func (g *Gateway) MigrateLegacy(devs []LegacyDevice, now time.Time) ([]LegacyOutcome, error) {
	out := make([]LegacyOutcome, 0, len(devs))
	for _, d := range devs {
		a, err := g.assessor.Assess(d.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("gateway: legacy assess %v: %w", d.MAC, err)
		}
		o := LegacyOutcome{MAC: d.MAC, Type: string(a.Type), Level: a.Level}
		if a.Level == sdn.Trusted {
			if d.SupportsWPS {
				// WPS re-keying succeeds: the device gets a
				// device-specific PSK and joins the trusted overlay.
				o.Migrated = true
				if g.cfg.Keystore != nil {
					cred, err := g.cfg.Keystore.Enroll(d.MAC)
					if err != nil {
						return nil, fmt.Errorf("gateway: re-key %v: %w", d.MAC, err)
					}
					o.PSKFingerprint = cred.Fingerprint()
				}
			} else {
				// Without re-keying the leaked legacy PSK could let an
				// adversary impersonate the device; keep it untrusted
				// until the user re-introduces it.
				o.Level = sdn.Strict
				o.ManualReauthRequired = true
			}
		}
		// The verdict lands like any other: a tracked device keeps its
		// record, and an open capture is dropped so the idle sweep never
		// re-assesses the device from setup traffic over this verdict.
		s := g.shardOf(d.MAC)
		s.mu.Lock()
		if s.devices[d.MAC] == nil {
			s.devices[d.MAC] = &DeviceInfo{MAC: d.MAC, FirstSeen: now}
		}
		delete(s.captures, d.MAC)
		s.mu.Unlock()
		a.Level = o.Level
		// No fingerprint for the learner: it clusters setup traffic, and
		// this one is standby traffic.
		g.apply(d.MAC, a, nil, now)
		out = append(out, o)
	}
	return out, nil
}
