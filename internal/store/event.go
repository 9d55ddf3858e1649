package store

import (
	"net/netip"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/vulndb"
)

// EventKind names one device-lifecycle transition.
type EventKind string

// Journal event kinds, mirroring the gateway lifecycle of Sect. III-A.
const (
	// EvCaptureStarted: a new MAC entered the monitoring state.
	EvCaptureStarted EventKind = "capture_started"
	// EvAssessed: the IoTSSP returned an assessment and an enforcement
	// rule was installed.
	EvAssessed EventKind = "assessed"
	// EvQuarantined: the assessment failed; the device is isolated
	// fail-closed at strict and parked for retry. Durable (fsynced).
	EvQuarantined EventKind = "quarantined"
	// EvPromoted: a quarantined device's retry succeeded; same payload
	// as EvAssessed.
	EvPromoted EventKind = "promoted"
	// EvRemoved: the device left the network and its rule was evicted.
	// Durable (fsynced).
	EvRemoved EventKind = "removed"

	// Online-learning kinds: the unknown-device loop journals its
	// cluster growth so a pending proposal survives restart. All three
	// are routine (batched, not fsynced) — losing a tail record merely
	// re-observes an unknown or re-proposes a cluster later.

	// EvUnknownObserved: a fingerprint no classifier accepted joined a
	// cluster (Cluster names it, Fingerprint carries the member's F).
	EvUnknownObserved EventKind = "unknown_observed"
	// EvTypeProposed: a cluster crossed the membership threshold and
	// proposed a new device-type (Type is the proposed name, Members the
	// cluster size at proposal).
	EvTypeProposed EventKind = "type_proposed"
	// EvTypePromoted: the proposed type trained, validated,
	// hot-swapped into the serving bank, and that bank was stored as
	// the model store's serving bank — appended only after the store,
	// so a replayed promotion whose type the stored bank lacks was
	// removed since (a fleet rollback or push) and is not retrained.
	// Routine: a record lost to a crash is recovered by the learner
	// finding the type already in the bank it boots.
	EvTypePromoted EventKind = "type_promoted"

	// Fleet-rollout kinds: the canary state machine of internal/fleet
	// journals its transitions so a crashed controller resumes
	// mid-rollout instead of forgetting which gateways run which bank.
	// All three are durable (fsynced): losing a started record would
	// leave canaries serving a bank the controller no longer watches.

	// EvRolloutStarted: a candidate model bank began canarying. Model
	// is the candidate's SHA-256, BaselineModel the bank to roll back
	// to, Canaries the gateway IDs selected for the canary set.
	EvRolloutStarted EventKind = "rollout_started"
	// EvRolloutPromoted: the canary held its unknown-rate and the
	// candidate (Model) was pushed fleet-wide.
	EvRolloutPromoted EventKind = "rollout_promoted"
	// EvRolloutRolledBack: the canary regressed; the baseline
	// (BaselineModel) was re-pushed to the canary set and the
	// candidate (Model) abandoned.
	EvRolloutRolledBack EventKind = "rollout_rolled_back"
)

// kindCodes maps each kind to its byte in a binary record (the index);
// codes are part of the format and are never reused.
var kindCodes = [...]EventKind{
	1: EvCaptureStarted, 2: EvAssessed, 3: EvQuarantined, 4: EvPromoted, 5: EvRemoved,
	6: EvUnknownObserved, 7: EvTypeProposed, 8: EvTypePromoted,
	9: EvRolloutStarted, 10: EvRolloutPromoted, 11: EvRolloutRolledBack,
}

// Event is one journal record. Fields beyond Seq/Kind/MAC/At are
// populated per kind; absolute values (not deltas) so replay is
// idempotent.
type Event struct {
	Seq  uint64
	Kind EventKind
	MAC  packet.MAC
	// At is the gateway-time of the transition.
	At time.Time

	// FirstSeen carries the device's first-packet time (capture,
	// assessed, quarantined).
	FirstSeen time.Time

	// Assessment fields (EvAssessed, EvPromoted).
	Type         string
	Level        int
	PermittedIPs []netip.Addr
	Vulns        []vulndb.Record
	SetupPackets int

	// Quarantine fields (EvQuarantined).
	Attempts int
	// Fingerprint is the parked fingerprint's F; F′ is re-derived on
	// recovery (fingerprint.FromF). EvUnknownObserved reuses it for the
	// cluster member's F.
	Fingerprint fingerprint.F

	// Online-learning fields (EvUnknownObserved, EvTypeProposed,
	// EvTypePromoted). Cluster is the cluster's stable name; Members is
	// its size when the event fired.
	Cluster string
	Members int

	// Fleet-rollout fields (EvRolloutStarted, EvRolloutPromoted,
	// EvRolloutRolledBack). Model and BaselineModel are SHA-256 hex of
	// the versioned model blobs; Canaries the selected gateway IDs.
	Model         string
	BaselineModel string
	Canaries      []string
}

// durable reports whether the event must be on disk before Append
// returns. Security demotions are: losing one to a crash would let a
// device the gateway decided to isolate come back unrestricted.
// Promotions batch — losing one recovers the device at something
// stricter, which is safe. Rollout transitions are durable too: a
// forgotten rollout_started would leave canary gateways serving an
// unwatched candidate bank after a controller crash.
func (e *Event) durable() bool {
	switch e.Kind {
	case EvQuarantined, EvRemoved,
		EvRolloutStarted, EvRolloutPromoted, EvRolloutRolledBack:
		return true
	}
	return false
}
