package store

import (
	"time"

	"iotsentinel/internal/obs"
)

// Metrics is the durability layer's instrumentation bundle. Attach one
// via Options.Metrics; a nil bundle disables instrumentation with zero
// overhead (every method is nil-safe), matching the repo-wide pattern.
//
// Exported series:
//
//	store_journal_appends_total{durability="batched|fsync"}  counter
//	store_journal_bytes_total                                counter
//	store_journal_commits_total                              counter
//	store_snapshots_total                                    counter
//	store_snapshot_seconds                                   histogram
//	store_recovery_events_replayed_total                     counter
//	store_recovery_torn_bytes_total                          counter
//	store_recoveries_total{outcome="clean|degraded"}         counter
//	store_model_saves_total                                  counter
//	store_model_loads_total{source="disk|train"}             counter
type Metrics struct {
	appendBatched *obs.Counter
	appendFsync   *obs.Counter
	journalBytes  *obs.Counter
	commits       *obs.Counter

	snapshots       *obs.Counter
	snapshotSeconds *obs.Histogram

	recoveryReplayed *obs.Counter
	recoveryTorn     *obs.Counter
	recoverClean     *obs.Counter
	recoverDegraded  *obs.Counter

	modelSaves *obs.Counter
	modelLoads *obs.CounterVec
}

// NewMetrics registers the store metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	appends := reg.CounterVec("store_journal_appends_total",
		"Journal records appended, by durability class (fsync: waited for; batched: group-committed).", "durability")
	recoveries := reg.CounterVec("store_recoveries_total",
		"Recovery passes at startup, by outcome.", "outcome")
	return &Metrics{
		appendBatched: appends.With("batched"),
		appendFsync:   appends.With("fsync"),
		journalBytes: reg.Counter("store_journal_bytes_total",
			"Journal payload bytes appended."),
		commits: reg.Counter("store_journal_commits_total",
			"Journal group commits: one write and one fsync of every record enqueued before it."),
		snapshots: reg.Counter("store_snapshots_total",
			"Snapshots checkpointed (each retires the journal segments it covers)."),
		snapshotSeconds: reg.Histogram("store_snapshot_seconds",
			"Checkpoint latency: journal rotation, snapshot write, segment unlinks.", nil),
		recoveryReplayed: reg.Counter("store_recovery_events_replayed_total",
			"Journal events replayed during recovery."),
		recoveryTorn: reg.Counter("store_recovery_torn_bytes_total",
			"Bytes truncated from damaged journal tails during recovery."),
		recoverClean:    recoveries.With("clean"),
		recoverDegraded: recoveries.With("degraded"),
		modelSaves: reg.Counter("store_model_saves_total",
			"Classifier-bank model files persisted."),
		modelLoads: reg.CounterVec("store_model_loads_total",
			"Classifier banks brought up, by source (disk = warm boot, train = cold).", "source"),
	}
}

func (m *Metrics) appended(payloadBytes int, durable bool) {
	if m == nil {
		return
	}
	if durable {
		m.appendFsync.Inc()
	} else {
		m.appendBatched.Inc()
	}
	m.journalBytes.Add(uint64(payloadBytes))
}

func (m *Metrics) committed() {
	if m != nil {
		m.commits.Inc()
	}
}

func (m *Metrics) snapshotted(d time.Duration) {
	if m != nil {
		m.snapshots.Inc()
		m.snapshotSeconds.ObserveDuration(d)
	}
}

func (m *Metrics) recovered(events int, tornBytes int64, degraded bool) {
	if m == nil {
		return
	}
	m.recoveryReplayed.Add(uint64(events))
	if tornBytes > 0 {
		m.recoveryTorn.Add(uint64(tornBytes))
	}
	if degraded {
		m.recoverDegraded.Inc()
	} else {
		m.recoverClean.Inc()
	}
}

func (m *Metrics) modelSaved() {
	if m != nil {
		m.modelSaves.Inc()
	}
}

// modelLoaded counts one classifier-bank bring-up. Source is "disk"
// for a warm boot from the model store (counted by Load) or "train"
// when the caller had to train from scratch (LoadedFromTraining).
func (m *Metrics) modelLoaded(source string) {
	if m != nil {
		m.modelLoads.With(source).Inc()
	}
}
