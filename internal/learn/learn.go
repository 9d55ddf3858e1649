// Package learn closes the unknown-device loop of the IoTSSP: a
// fingerprint accepted by no classifier signals a new device-type
// (Sect. IV-B), and instead of dead-ending in strict isolation, it
// feeds an online clusterer. Unknown fingerprints are deduplicated by
// canonical key and grouped by single-linkage normalized
// Damerau-Levenshtein distance over their packed symbol sequences —
// the same machinery the discrimination stage uses, exploiting that
// behavioral fingerprints of one device-type cluster tightly (IoTSense).
// Once a cluster reaches K members it proposes a device-type; a
// background step builds the next bank from the serving one with the
// new type's one-vs-rest classifier, validates it against the cluster,
// and hot-swaps it in — serving never blocks on training. Every observation, proposal and
// promotion is journaled through internal/store, so a half-grown
// cluster and a promoted type both survive restart. A promotion is
// journaled only once its bank is stored, so the journal never names a
// type the stored bank lacks unless the type was removed since (a fleet
// rollback or push), and a removed type stays removed. On a gateway the
// full cluster state also rides in the snapshot, which lets a
// checkpoint retire the journal; iotsspd takes no snapshot, so its
// journal carries the clusters whole.
package learn

import (
	"fmt"
	"sync"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/editdist"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/store"
)

// DefaultLinkage is the single-linkage threshold on the
// normalized edit distance between a new fingerprint and a cluster
// member. Measured on the device catalog over canonically-distinct
// captures (the learner dedupes exact replays, so these are the pairs
// linkage actually sees): within-type distances run 0.08–0.64 with
// most pairs under 0.5, while the closest between-type pair across the
// catalog sits at 0.625 (MAXGateway vs HomeMaticPlug) and typical
// between-type minima are 0.7–0.92. 0.5 links same-type captures —
// single-linkage chaining through bridge fingerprints absorbs the
// 0.5–0.64 tail — without crossing any type boundary.
const DefaultLinkage = 0.5

// DefaultK is the default cluster size that triggers a type proposal.
const DefaultK = 3

// queueDepth bounds the observation queue between the assessment path
// and the clustering goroutine. A full queue drops observations
// (counted) rather than ever blocking serving.
const queueDepth = 256

// maxClusterMembers caps the fingerprints retained per cluster; growth
// past the cap still counts members for bookkeeping but stops storing
// evidence (training gains little from hundreds of near-duplicates,
// and the cluster state must fit in a snapshot).
const maxClusterMembers = 64

// Config wires a Learner to its collaborators. Promote and Known are
// plain funcs rather than an interface so the learner stays decoupled
// from iotssp: daemons pass Service.PromoteType and Service.HasType.
type Config struct {
	// K is the cluster size that triggers a proposal (0 = DefaultK).
	K int
	// Promote trains and hot-swaps a classifier for the proposed type,
	// returning the new serving bank (iotssp.Service.PromoteType).
	// Required.
	Promote func(core.TypeID, []fingerprint.Fingerprint) (*core.Identifier, error)
	// Known reports whether the serving bank already has the type
	// (iotssp.Service.HasType). Required.
	Known func(core.TypeID) bool
	// OnPromoted, if set, runs after Promote swapped the new bank in and
	// before the promotion is journaled: node.NewLearner stores the bank
	// as the serving bank here and hands it to the fleet control plane.
	// An error leaves the promotion unrecorded: the type serves in this
	// process, and the next boot trains it again from the journaled
	// proposal. It is called from the learner's background goroutine
	// and must not block on training or serving.
	OnPromoted func(t core.TypeID, bank *core.Identifier) error
	// Store, if set, journals observations, proposals and promotions.
	Store *store.Store
	// Metrics, if set, receives cluster/promotion instrumentation.
	Metrics *Metrics
	// Logf, if set, receives progress and error lines.
	Logf func(format string, args ...any)
}

// cluster is one group of linked unknown fingerprints. Members are kept
// as F, which is all linkage reads; a promotion rebuilds whole
// fingerprints for the classifier it trains.
type cluster struct {
	id       string
	typeName core.TypeID
	members  []fingerprint.F
	proposed bool
	promoted bool
	// unrecorded marks a promotion whose bank OnPromoted could not
	// store: it serves here, but it is neither journaled nor snapshotted
	// as promoted, so the next boot trains it again.
	unrecorded bool
	// retryAt, after a failed promotion, is the membership the cluster
	// must reach before proposing again: retrying on the same evidence
	// would just fail the same way, in a hot loop.
	retryAt int
}

// Learner is the online-learning subsystem. Observe is safe from any
// goroutine and never blocks; clustering and promotion run on one
// background goroutine, so promotions are serialized and the cluster
// state needs only one mutex (held briefly — never across training).
type Learner struct {
	cfg Config
	k   int

	mu       sync.Mutex
	clusters []*cluster
	seen     map[fingerprint.Key]*cluster
	nextID   int

	// queue carries observations' F: 24 B a slot, where a whole
	// Fingerprint would be 2 240.
	queue     chan fingerprint.F
	sweep     chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// pending counts enqueued-but-unfinished work items so Wait can
	// block until the learner is idle (tests, graceful shutdown).
	pendingMu sync.Mutex
	pending   int
	idle      *sync.Cond
}

// New starts a learner; Close stops it.
func New(cfg Config) (*Learner, error) {
	if cfg.Promote == nil || cfg.Known == nil {
		return nil, fmt.Errorf("learn: Config.Promote and Config.Known are required")
	}
	k := cfg.K
	if k <= 0 {
		k = DefaultK
	}
	l := &Learner{
		cfg:    cfg,
		k:      k,
		seen:   make(map[fingerprint.Key]*cluster),
		nextID: 1,
		queue:  make(chan fingerprint.F, queueDepth),
		sweep:  make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	l.idle = sync.NewCond(&l.pendingMu)
	l.wg.Add(1)
	go l.run()
	return l, nil
}

// Close stops the clustering goroutine; safe to call more than once.
// Queued observations not yet processed are lost from memory — but not
// from the journal, which is the copy restart recovers from.
func (l *Learner) Close() {
	l.closeOnce.Do(func() { close(l.done) })
	l.wg.Wait()
}

// Observe feeds one unknown fingerprint to the clusterer. It never
// blocks: when the queue is full the observation is dropped (counted by
// metrics) — the device stays strictly isolated either way, and a
// genuinely recurring type will be observed again.
func (l *Learner) Observe(fp fingerprint.Fingerprint) {
	l.addPending(1)
	select {
	case l.queue <- fp.F:
		l.cfg.Metrics.incObserved()
	default:
		l.addPending(-1)
		l.cfg.Metrics.incDropped()
	}
}

// Wait blocks until every queued observation (and any promotion it
// triggered) has been processed.
func (l *Learner) Wait() {
	l.pendingMu.Lock()
	for l.pending > 0 {
		l.idle.Wait()
	}
	l.pendingMu.Unlock()
}

func (l *Learner) addPending(d int) {
	l.pendingMu.Lock()
	l.pending += d
	if l.pending <= 0 {
		l.idle.Broadcast()
	}
	l.pendingMu.Unlock()
}

func (l *Learner) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

// run is the clustering goroutine: it drains observations, journals
// them, and drives any proposal they trigger through training.
func (l *Learner) run() {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case f := <-l.queue:
			l.process(f)
			l.addPending(-1)
		case <-l.sweep:
			l.promotePending()
			l.addPending(-1)
		}
	}
}

// process clusters one observation and drives its consequences.
func (l *Learner) process(f fingerprint.F) {
	l.mu.Lock()
	c, dup := l.observeLocked(f)
	var members int
	var proposed bool
	if c != nil {
		members, proposed = len(c.members), c.proposed && !c.promoted
	}
	l.mu.Unlock()
	if dup || c == nil {
		l.cfg.Metrics.incDuplicate()
		return
	}
	l.journal(store.Event{
		Kind:        store.EvUnknownObserved,
		At:          time.Now(),
		Cluster:     c.id,
		Members:     members,
		Fingerprint: f,
	})
	if proposed {
		l.cfg.Metrics.incProposal()
		l.journal(store.Event{
			Kind:    store.EvTypeProposed,
			At:      time.Now(),
			Cluster: c.id,
			Type:    string(c.typeName),
			Members: members,
		})
		l.logf("learn: cluster %s reached %d members, proposing type %q", c.id, members, c.typeName)
	}
	l.promotePending()
}

// observeLocked dedupes, links and (if a threshold is crossed) marks
// the proposal. The caller holds l.mu and journals from the returned
// state — clustering is pure state transition, shared by live
// observation and journal replay.
func (l *Learner) observeLocked(f fingerprint.F) (c *cluster, dup bool) {
	key := f.CanonicalKey()
	if owner, ok := l.seen[key]; ok {
		return owner, true
	}
	// Single linkage: a fingerprint within the threshold of any member
	// joins that cluster, and when it bridges several clusters they were
	// one component all along — merge them. Merging makes the final
	// clustering a function of the observation *set*, not its order,
	// which is what lets journal replay (and the shuffled arrivals of a
	// live gateway) reproduce the same groups.
	var linked []*cluster
	for _, cand := range l.clusters {
		for i := range cand.members {
			if _, ok := editdist.NormalizedBounded(f, cand.members[i], DefaultLinkage); ok {
				linked = append(linked, cand)
				break
			}
		}
	}
	if len(linked) > 0 {
		// Survivor: the earliest promoted cluster if the bridge touches
		// one (the new evidence belongs to the already-learned type),
		// else the earliest by creation order. Promoted clusters are
		// never absorbed — their type name is live in the serving bank.
		c = linked[0]
		if !c.promoted {
			for _, cand := range linked[1:] {
				if cand.promoted {
					c = cand
					break
				}
			}
		}
		for _, o := range linked {
			if o != c && !o.promoted {
				l.mergeLocked(c, o)
			}
		}
	} else {
		// Proposed types are named after their cluster, from a counter
		// that survives restart.
		c = &cluster{id: fmt.Sprintf("learned-%04d", l.nextID)}
		l.nextID++
		l.clusters = append(l.clusters, c)
	}
	l.cfg.Metrics.setClusters(len(l.clusters))
	l.seen[key] = c
	if len(c.members) < maxClusterMembers {
		c.members = append(c.members, f)
	}
	if !c.proposed && !c.promoted && len(c.members) >= l.k && len(c.members) >= c.retryAt {
		c.proposed = true
		c.typeName = core.TypeID(c.id)
	}
	return c, false
}

// mergeLocked absorbs src into dst and drops src from the cluster
// list. src's proposal state (it is never promoted — promoted clusters
// are not absorbed) dies with it: if the merged cluster is big enough,
// the threshold check after the merge re-proposes it under dst's name.
func (l *Learner) mergeLocked(dst, src *cluster) {
	for _, f := range src.members {
		if len(dst.members) >= maxClusterMembers {
			break
		}
		dst.members = append(dst.members, f)
	}
	for key, owner := range l.seen {
		if owner == src {
			l.seen[key] = dst
		}
	}
	if src.retryAt > dst.retryAt {
		dst.retryAt = src.retryAt
	}
	for i, cand := range l.clusters {
		if cand == src {
			l.clusters = append(l.clusters[:i], l.clusters[i+1:]...)
			break
		}
	}
}

// promotePending trains and swaps every cluster that is proposed but
// not yet promoted. Training runs without l.mu held: SnapshotState and
// Observe callers must not stall behind a forest build.
func (l *Learner) promotePending() {
	for {
		l.mu.Lock()
		var c *cluster
		for _, cand := range l.clusters {
			if cand.proposed && !cand.promoted {
				c = cand
				break
			}
		}
		if c == nil {
			l.mu.Unlock()
			return
		}
		name := c.typeName
		fs := append([]fingerprint.F(nil), c.members...)
		l.mu.Unlock()

		if l.cfg.Known(name) {
			// The bank already has the type: a previous run stored it and
			// lost the promotion record (a routine, batched record, or a
			// crash between the store and the append). Adopt it rather
			// than retraining.
			l.finishPromotion(c, name, len(fs), nil)
			continue
		}
		// Observe takes any caller's Fingerprint: FromF keeps a member
		// the extractor could not have produced out of training, as
		// Recover keeps it out of the clusters.
		members := make([]fingerprint.Fingerprint, 0, len(fs))
		for _, f := range fs {
			if fp, err := fingerprint.FromF(f); err == nil {
				members = append(members, fp)
			}
		}
		start := time.Now()
		bank, err := l.cfg.Promote(name, members)
		l.cfg.Metrics.observePromote(time.Since(start), err == nil)
		if err != nil {
			l.mu.Lock()
			c.proposed = false
			c.typeName = ""
			// Demand fresh evidence before retrying: same members would
			// fail the same validation.
			c.retryAt = len(c.members) + 1
			l.mu.Unlock()
			l.logf("learn: promotion of %s as %q failed: %v", c.id, name, err)
			continue
		}
		l.finishPromotion(c, name, len(fs), bank)
	}
}

// finishPromotion records a successful (or adopted) promotion. A new
// bank goes through OnPromoted first: the journal names a promotion only
// once its bank is stored.
func (l *Learner) finishPromotion(c *cluster, name core.TypeID, members int, bank *core.Identifier) {
	var err error
	if bank != nil && l.cfg.OnPromoted != nil {
		err = l.cfg.OnPromoted(name, bank)
	}
	l.mu.Lock()
	c.promoted = true
	c.typeName = name
	c.unrecorded = err != nil
	l.mu.Unlock()
	if err != nil {
		l.logf("learn: type %q serves but its bank was not stored, so the promotion is not recorded: %v", name, err)
		return
	}
	l.journal(store.Event{
		Kind:    store.EvTypePromoted,
		At:      time.Now(),
		Cluster: c.id,
		Type:    string(name),
		Members: members,
	})
	l.logf("learn: promoted cluster %s as type %q (%d members)", c.id, name, members)
}

func (l *Learner) journal(ev store.Event) {
	if l.cfg.Store == nil {
		return
	}
	if _, err := l.cfg.Store.Append(ev); err != nil {
		l.logf("learn: journal %s: %v", ev.Kind, err)
	}
}

// requestSweep schedules a promotePending pass on the background
// goroutine (used by Recover; coalesces if one is already queued).
func (l *Learner) requestSweep() {
	l.addPending(1)
	select {
	case l.sweep <- struct{}{}:
	default:
		l.addPending(-1)
	}
}

// ClusterInfo is a read-only view of one cluster.
type ClusterInfo struct {
	ID       string
	Type     core.TypeID
	Members  int
	Proposed bool
	Promoted bool
}

// Clusters returns the current clusters in creation order.
func (l *Learner) Clusters() []ClusterInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ClusterInfo, len(l.clusters))
	for i, c := range l.clusters {
		out[i] = ClusterInfo{
			ID: c.id, Type: c.typeName, Members: len(c.members),
			Proposed: c.proposed, Promoted: c.promoted,
		}
	}
	return out
}

// SnapshotState captures the full cluster state for the gateway
// snapshot (wire it to gateway.Config.LearnState). Checkpoint retires
// the journal up to the snapshot, so this must be self-contained: every
// member fingerprint is included (its F, shared with the live member —
// an F is never modified).
func (l *Learner) SnapshotState() *store.LearnState {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls := &store.LearnState{NextCluster: l.nextID}
	for _, c := range l.clusters {
		cr := store.ClusterRecord{
			ID:       c.id,
			Type:     string(c.typeName),
			Proposed: c.proposed,
			Promoted: c.promoted && !c.unrecorded,
			Members:  append([]fingerprint.F(nil), c.members...),
		}
		ls.Clusters = append(ls.Clusters, cr)
	}
	return ls
}

// RecoverStats summarizes what Recover rebuilt.
type RecoverStats struct {
	// Clusters and Members are the totals restored (snapshot + replay).
	Clusters int
	Members  int
	// Replayed counts learn journal events applied on top of the
	// snapshot.
	Replayed int
	// Pending is the number of proposed-not-promoted clusters queued
	// for background promotion after recovery.
	Pending int
}

func (s RecoverStats) String() string {
	return fmt.Sprintf("%d clusters (%d members), %d events replayed, %d pending",
		s.Clusters, s.Members, s.Replayed, s.Pending)
}

// Recover rebuilds the learner from what store.Open found: cluster
// state from the snapshot, then the learn journal suffix replayed
// through the same clustering transition as live observation (cluster
// IDs reproduce because the naming counter is part of the snapshot).
// It must run on a fresh learner before any Observe. Afterwards a
// background sweep drives every proposed-not-promoted cluster: one whose
// bank was stored before its record was lost is adopted (Known), the
// rest are trained. A promoted cluster stays promoted whether or not
// the serving bank has its type: a type a rollback or a fleet push
// removed absorbs its later unknowns and is not proposed again.
func (l *Learner) Recover(rec *store.Recovery) (RecoverStats, error) {
	var stats RecoverStats
	if rec == nil {
		return stats, nil
	}
	l.mu.Lock()
	if len(l.clusters) > 0 {
		l.mu.Unlock()
		return stats, fmt.Errorf("learn: Recover on a non-empty learner")
	}
	if rec.Snapshot != nil && rec.Snapshot.Learn != nil {
		ls := rec.Snapshot.Learn
		if ls.NextCluster > l.nextID {
			l.nextID = ls.NextCluster
		}
		for _, cr := range ls.Clusters {
			c := &cluster{
				id:       cr.ID,
				typeName: core.TypeID(cr.Type),
				proposed: cr.Proposed,
				promoted: cr.Promoted,
			}
			for _, f := range cr.Members {
				fp, err := fingerprint.FromF(f)
				if err != nil {
					continue // unusable member: the cluster just has less evidence
				}
				key := fp.CanonicalKey()
				if _, dup := l.seen[key]; dup {
					continue
				}
				c.members = append(c.members, fp.F)
				l.seen[key] = c
			}
			if len(c.members) == 0 && !c.promoted {
				continue // nothing left to propose from
			}
			l.clusters = append(l.clusters, c)
		}
	}
	for _, ev := range rec.Events {
		switch ev.Kind {
		case store.EvUnknownObserved:
			fp, err := fingerprint.FromF(ev.Fingerprint)
			if err != nil {
				continue
			}
			l.observeLocked(fp.F)
		case store.EvTypeProposed:
			if c := l.clusterByIDLocked(ev.Cluster); c != nil && !c.promoted {
				c.proposed = true
				c.typeName = core.TypeID(ev.Type)
			}
		case store.EvTypePromoted:
			if c := l.clusterByIDLocked(ev.Cluster); c != nil {
				c.proposed, c.promoted = true, true
				c.typeName = core.TypeID(ev.Type)
			}
		default:
			continue
		}
		stats.Replayed++
	}
	for _, c := range l.clusters {
		stats.Clusters++
		stats.Members += len(c.members)
		if c.proposed && !c.promoted {
			stats.Pending++
		}
	}
	l.cfg.Metrics.setClusters(len(l.clusters))
	l.mu.Unlock()
	if stats.Pending > 0 {
		l.requestSweep()
	}
	return stats, nil
}

func (l *Learner) clusterByIDLocked(id string) *cluster {
	for _, c := range l.clusters {
		if c.id == id {
			return c
		}
	}
	return nil
}
