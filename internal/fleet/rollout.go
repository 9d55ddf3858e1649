package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"iotsentinel/internal/store"
)

// Policy tunes the canary rollout state machine.
type Policy struct {
	// CanaryFraction is the fraction of registered gateways that
	// receive a candidate bank first (0 selects 0.25; always at least
	// one gateway when any are registered).
	CanaryFraction float64
	// MinSamples is how many assessments each canary must report under
	// the candidate before the rollout is judged (0 selects 20).
	MinSamples uint64
	// MaxUnknownDelta is the largest tolerated excess of the canary
	// unknown-rate over the baseline rate (0 selects 0.05). At or
	// under: promote fleet-wide. Over: roll back.
	MaxUnknownDelta float64
}

func (p Policy) withDefaults() Policy {
	if p.CanaryFraction <= 0 || p.CanaryFraction > 1 {
		p.CanaryFraction = 0.25
	}
	if p.MinSamples == 0 {
		p.MinSamples = 20
	}
	if p.MaxUnknownDelta <= 0 {
		p.MaxUnknownDelta = 0.05
	}
	return p
}

// Phase is the rollout state machine's position.
type Phase int

const (
	// PhaseIdle: no rollout in flight; the fleet serves Current.
	PhaseIdle Phase = iota
	// PhaseCanarying: the candidate is applied (or being applied) on
	// the canary set and their counters are being watched.
	PhaseCanarying
)

func (p Phase) String() string {
	if p == PhaseCanarying {
		return "canarying"
	}
	return "idle"
}

// ErrRolloutInFlight rejects a second concurrent rollout; the caller
// retries after the current one promotes or rolls back.
var ErrRolloutInFlight = errors.New("fleet: a rollout is already in flight")

// canaryState tracks one canary gateway through a rollout.
type canaryState struct {
	// applied flips when the gateway acks the candidate; the counters
	// below are where it stood when it applied it, so only assessments
	// made *under the candidate* are judged.
	applied                   bool
	baseAssessed, baseUnknown uint64
	// startAssessed/startUnknown snapshot non-canary gateways at
	// rollout start for the baseline window (same fields reused).
}

// ControllerConfig wires a rollout controller.
type ControllerConfig struct {
	// Registry is the gateway fleet (required).
	Registry *Registry
	// Policy tunes canary sizing and judgment.
	Policy Policy
	// Store, if set, journals every rollout transition (durable
	// appends) so Recover can resume a crashed rollout.
	Store *store.Store
	// Models, if set, persists every model blob the controller may
	// still need (candidate, baseline) content-addressed by SHA-256;
	// without it a crashed controller cannot re-push after Recover.
	Models *store.ModelStore
	// OnRollback, if set, runs after a rollback with the SHA and bytes
	// of the baseline the fleet was restored to (the central daemon
	// uses them to revert its own serving bank through the validated
	// hot-swap path; model is nil when the baseline has no bytes).
	OnRollback func(sha string, model []byte)
	// Metrics, if set, receives rollout instrumentation.
	Metrics *Metrics
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)
}

// Controller drives canary model rollouts: push a candidate bank to a
// fraction of the fleet, watch the canaries' streamed unknown-rate,
// promote fleet-wide when it holds, roll back when it regresses.
// Every transition is journaled durable-first, then acted on, so a
// crash between journal and pushes re-drives the pushes from Recover.
type Controller struct {
	cfg    ControllerConfig
	policy Policy

	mu sync.Mutex
	// blobs caches model bytes by SHA for pushes; the model store
	// holds the durable copy.
	blobs   map[string][]byte
	current string

	phase     Phase
	candidate string
	baseline  string
	canaries  map[string]*canaryState
	// nonCanaryBase snapshots every non-canary gateway's counters at
	// rollout start: the baseline unknown-rate is measured over the
	// same window as the canary rate.
	nonCanaryBase map[string][2]uint64
	// preAssessed/preUnknown are fleet totals at rollout start, the
	// baseline fallback when no non-canary gateway reports during the
	// canary window.
	preAssessed, preUnknown uint64
}

// NewController assembles a controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Registry == nil {
		return nil, errors.New("fleet: ControllerConfig.Registry is required")
	}
	return &Controller{
		cfg:    cfg,
		policy: cfg.Policy.withDefaults(),
		blobs:  make(map[string][]byte),
	}, nil
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// journal appends one rollout event; rollout kinds are durable, so the
// record is on disk when this returns.
func (c *Controller) journal(ev store.Event) {
	if c.cfg.Store == nil {
		return
	}
	ev.At = time.Now()
	if _, err := c.cfg.Store.Append(ev); err != nil {
		c.logf("fleet: journal %s: %v", ev.Kind, err)
	}
}

// persistBlob stores the model bytes in memory and, when a model store
// is configured, on disk, returning the content SHA.
func (c *Controller) persistBlob(model []byte) (string, error) {
	sum := sha256.Sum256(model)
	sha := hex.EncodeToString(sum[:])
	if c.cfg.Models != nil {
		if _, err := c.cfg.Models.SaveVersion(model); err != nil {
			return "", err
		}
	}
	c.mu.Lock()
	c.blobs[sha] = append([]byte(nil), model...)
	c.mu.Unlock()
	return sha, nil
}

// blob returns the bytes for sha, falling back to the model store.
func (c *Controller) blob(sha string) ([]byte, error) {
	c.mu.Lock()
	b, ok := c.blobs[sha]
	c.mu.Unlock()
	if ok {
		return b, nil
	}
	if c.cfg.Models == nil {
		return nil, fmt.Errorf("fleet: no bytes for model %.12s", sha)
	}
	b, err := c.cfg.Models.LoadVersion(sha)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.blobs[sha] = b
	c.mu.Unlock()
	return b, nil
}

// SetCurrent registers the bank the fleet serves today (the daemon's
// live bank at startup) without starting a rollout. Returns its SHA.
func (c *Controller) SetCurrent(model []byte) (string, error) {
	sha, err := c.persistBlob(model)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.current = sha
	c.mu.Unlock()
	return sha, nil
}

// Current returns the SHA of the fleet's current model version.
func (c *Controller) Current() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// RolloutStatus is a read-only view of the state machine.
type RolloutStatus struct {
	Phase     Phase
	Current   string
	Candidate string
	Baseline  string
	// Canaries maps canary gateway ID → whether it acked the
	// candidate.
	Canaries map[string]bool
}

// Status snapshots the rollout state.
func (c *Controller) Status() RolloutStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := RolloutStatus{
		Phase:     c.phase,
		Current:   c.current,
		Candidate: c.candidate,
		Baseline:  c.baseline,
	}
	if c.canaries != nil {
		st.Canaries = make(map[string]bool, len(c.canaries))
		for id, cs := range c.canaries {
			st.Canaries[id] = cs.applied
		}
	}
	return st
}

// StartRollout begins canarying a candidate bank. With an empty fleet
// the candidate becomes current immediately (journaled as a started +
// promoted pair — there is nobody to canary on). Returns the
// candidate's SHA.
func (c *Controller) StartRollout(model []byte) (string, error) {
	sha, err := c.persistBlob(model)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	if c.phase != PhaseIdle {
		c.mu.Unlock()
		return "", fmt.Errorf("%w (candidate %.12s)", ErrRolloutInFlight, c.candidate)
	}
	if sha == c.current {
		c.mu.Unlock()
		return sha, nil // already serving fleet-wide
	}
	baseline := c.current
	c.mu.Unlock()

	ids := c.cfg.Registry.IDs()
	if len(ids) == 0 {
		c.journal(store.Event{Kind: store.EvRolloutStarted, Model: sha, BaselineModel: baseline})
		c.journal(store.Event{Kind: store.EvRolloutPromoted, Model: sha})
		c.mu.Lock()
		c.current = sha
		c.mu.Unlock()
		c.cfg.Metrics.incRollout(true)
		c.logf("fleet: rollout %.12s promoted on an empty fleet", sha)
		return sha, nil
	}

	n := int(math.Ceil(c.policy.CanaryFraction * float64(len(ids))))
	if n < 1 {
		n = 1
	}
	if n > len(ids) {
		n = len(ids)
	}
	canaryIDs := ids[:n] // Registry.IDs is sorted: selection is deterministic

	c.mu.Lock()
	c.phase = PhaseCanarying
	c.candidate = sha
	c.baseline = baseline
	c.canaries = make(map[string]*canaryState, n)
	for _, id := range canaryIDs {
		c.canaries[id] = &canaryState{}
	}
	c.nonCanaryBase = make(map[string][2]uint64)
	c.preAssessed, c.preUnknown = 0, 0
	for _, id := range ids {
		a, u, ok := c.cfg.Registry.counters(id)
		if !ok {
			continue
		}
		c.preAssessed += a
		c.preUnknown += u
		if _, isCanary := c.canaries[id]; !isCanary {
			c.nonCanaryBase[id] = [2]uint64{a, u}
		}
	}
	c.mu.Unlock()
	c.cfg.Metrics.setCanarying(true)

	// Durable journal first, pushes second: a crash in between leaves
	// a journaled rollout whose pushes Recover re-drives.
	c.journal(store.Event{
		Kind: store.EvRolloutStarted, Model: sha, BaselineModel: baseline,
		Canaries: append([]string(nil), canaryIDs...),
	})
	c.logf("fleet: canarying %.12s on %d/%d gateways %v", sha, n, len(ids), canaryIDs)
	c.pushToCanaries(sha)
	return sha, nil
}

// pushToCanaries best-effort pushes the candidate to every canary not
// yet on it; failures are retried when the gateway reconnects (see
// ModelForGateway).
func (c *Controller) pushToCanaries(sha string) {
	model, err := c.blob(sha)
	if err != nil {
		c.logf("fleet: cannot push %.12s: %v", sha, err)
		return
	}
	c.mu.Lock()
	ids := make([]string, 0, len(c.canaries))
	for id, cs := range c.canaries {
		if !cs.applied {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	for _, id := range ids {
		if err := c.cfg.Registry.push(id, sha, model); err != nil {
			c.logf("fleet: push %.12s to canary %s: %v", sha, id, err)
		}
	}
}

// ModelForGateway decides what (if anything) to push to a gateway that
// just registered reporting reportedSHA: mid-rollout canaries get the
// candidate, everyone else converges on current.
func (c *Controller) ModelForGateway(id, reportedSHA string) (string, []byte) {
	c.mu.Lock()
	want := c.current
	if c.phase == PhaseCanarying {
		if cs, isCanary := c.canaries[id]; isCanary {
			want = c.candidate
			if reportedSHA == c.candidate && !cs.applied {
				// Already on the candidate (reconnect after a crash on
				// either side): adopt it as applied and start its
				// judgment window here.
				cs.applied = true
				if a, u, ok := c.cfg.Registry.counters(id); ok {
					cs.baseAssessed, cs.baseUnknown = a, u
				}
			}
		}
	}
	c.mu.Unlock()
	if want == "" || want == reportedSHA {
		return "", nil
	}
	model, err := c.blob(want)
	if err != nil {
		c.logf("fleet: no bytes to push %.12s to %s: %v", want, id, err)
		return "", nil
	}
	return want, model
}

// OnModelAck records a gateway's apply result. A canary that cannot
// apply the candidate is a rollout failure: fail safe, roll back. base
// is the gateway's counters from just before it applied the bank, nil
// from a gateway that does not report them.
func (c *Controller) OnModelAck(id, sha string, ok bool, errMsg string, base *counterPair) {
	c.cfg.Metrics.incModelAck(ok)
	if ok {
		c.cfg.Registry.setModel(id, sha)
	}
	c.mu.Lock()
	if c.phase != PhaseCanarying || sha != c.candidate {
		c.mu.Unlock()
		return
	}
	cs, isCanary := c.canaries[id]
	if !isCanary {
		c.mu.Unlock()
		return
	}
	if !ok {
		c.mu.Unlock()
		c.logf("fleet: canary %s failed to apply %.12s: %s", id, sha, errMsg)
		c.rollBack(fmt.Sprintf("canary %s failed to apply the candidate: %s", id, errMsg))
		return
	}
	if !cs.applied {
		cs.applied = true
		a, u, _ := c.cfg.Registry.counters(id)
		if base != nil {
			// The ack and the counters frames are written by different
			// goroutines of the gateway: assessments made under the
			// candidate can be in the registry before the ack arrives,
			// and a window based on the registry's figure would never
			// see them. The gateway's own reading is the base, and it is
			// offered to the registry as one more counters reading: kept
			// where the registry is behind it or still holds the row of
			// a previous process (a restarted canary must not be judged
			// on assessments made under the old bank), dropped where the
			// counters overtook the ack.
			c.cfg.Registry.setCounters(id, base.Assessed, base.Unknown)
			a, u = base.Assessed, base.Unknown
		}
		cs.baseAssessed, cs.baseUnknown = a, u
	}
	c.mu.Unlock()
	c.evaluate()
}

// OnCounters is called after the registry records fresh counters from
// a gateway; mid-rollout it may complete the canary judgment.
func (c *Controller) OnCounters(id string) {
	c.mu.Lock()
	judging := c.phase == PhaseCanarying
	c.mu.Unlock()
	if judging {
		c.evaluate()
	}
}

// OnExpire removes lease-expired gateways from an in-flight canary
// set; a rollout whose every canary vanished rolls back (fail safe:
// nobody is watching the candidate).
func (c *Controller) OnExpire(ids []string) {
	c.mu.Lock()
	if c.phase != PhaseCanarying {
		c.mu.Unlock()
		return
	}
	dropped := 0
	for _, id := range ids {
		if _, isCanary := c.canaries[id]; isCanary {
			delete(c.canaries, id)
			dropped++
		}
		delete(c.nonCanaryBase, id)
	}
	empty := len(c.canaries) == 0
	c.mu.Unlock()
	if dropped > 0 {
		c.logf("fleet: %d canary lease(s) expired mid-rollout", dropped)
	}
	if empty {
		c.rollBack("every canary's lease expired")
	} else if dropped > 0 {
		c.evaluate()
	}
}

// evaluate judges the canary once every canary has applied the
// candidate and reported MinSamples assessments under it. One
// judgment per rollout: promote or roll back.
func (c *Controller) evaluate() {
	c.mu.Lock()
	if c.phase != PhaseCanarying || len(c.canaries) == 0 {
		c.mu.Unlock()
		return
	}
	var canAssessed, canUnknown uint64
	for id, cs := range c.canaries {
		if !cs.applied {
			c.mu.Unlock()
			return
		}
		a, u, ok := c.cfg.Registry.counters(id)
		if !ok || a < cs.baseAssessed {
			// Gateway restarted and its cumulative counters reset:
			// restart its window from zero.
			cs.baseAssessed, cs.baseUnknown = 0, 0
			a, u, _ = c.cfg.Registry.counters(id)
		}
		da, du := a-cs.baseAssessed, u-cs.baseUnknown
		if da < c.policy.MinSamples {
			c.mu.Unlock()
			return
		}
		canAssessed += da
		canUnknown += du
	}
	canaryRate := float64(canUnknown) / float64(canAssessed)

	// Baseline: non-canary gateways over the same window; fall back to
	// the fleet's pre-rollout cumulative rate, then to zero (a fleet
	// with no history only promotes a candidate whose unknown-rate is
	// within MaxUnknownDelta of perfect).
	var baseAssessed, baseUnknown uint64
	for id, base := range c.nonCanaryBase {
		a, u, ok := c.cfg.Registry.counters(id)
		if !ok || a < base[0] {
			continue
		}
		baseAssessed += a - base[0]
		baseUnknown += u - base[1]
	}
	var baselineRate float64
	switch {
	case baseAssessed > 0:
		baselineRate = float64(baseUnknown) / float64(baseAssessed)
	case c.preAssessed > 0:
		baselineRate = float64(c.preUnknown) / float64(c.preAssessed)
	}
	pass := canaryRate <= baselineRate+c.policy.MaxUnknownDelta
	c.mu.Unlock()

	c.logf("fleet: canary unknown-rate %.3f vs baseline %.3f (+%.3f allowed): %s",
		canaryRate, baselineRate, c.policy.MaxUnknownDelta,
		map[bool]string{true: "promote", false: "roll back"}[pass])
	if pass {
		c.promote()
	} else {
		c.rollBack(fmt.Sprintf("canary unknown-rate %.3f exceeded baseline %.3f by more than %.3f",
			canaryRate, baselineRate, c.policy.MaxUnknownDelta))
	}
}

// promote pushes the candidate fleet-wide and closes the rollout.
func (c *Controller) promote() {
	c.mu.Lock()
	if c.phase != PhaseCanarying {
		c.mu.Unlock()
		return
	}
	sha := c.candidate
	canaries := c.canaries
	c.current = sha
	c.clearRolloutLocked()
	c.mu.Unlock()

	c.journal(store.Event{Kind: store.EvRolloutPromoted, Model: sha})
	c.cfg.Metrics.incRollout(true)
	c.cfg.Metrics.setCanarying(false)
	model, err := c.blob(sha)
	if err == nil {
		for _, id := range c.cfg.Registry.IDs() {
			if _, wasCanary := canaries[id]; wasCanary {
				continue // already serving the candidate
			}
			if err := c.cfg.Registry.push(id, sha, model); err != nil {
				c.logf("fleet: promote push %.12s to %s: %v", sha, id, err)
			}
		}
	} else {
		c.logf("fleet: promote: %v", err)
	}
	c.logf("fleet: rollout %.12s promoted fleet-wide", sha)
}

// rollBack re-pushes the baseline to the canary set and closes the
// rollout; current never moved, so the rest of the fleet is untouched.
func (c *Controller) rollBack(reason string) {
	c.mu.Lock()
	if c.phase != PhaseCanarying {
		c.mu.Unlock()
		return
	}
	candidate, baseline := c.candidate, c.baseline
	canaries := c.canaries
	c.clearRolloutLocked()
	c.mu.Unlock()

	c.journal(store.Event{Kind: store.EvRolloutRolledBack, Model: candidate, BaselineModel: baseline})
	c.cfg.Metrics.incRollout(false)
	c.cfg.Metrics.setCanarying(false)
	c.logf("fleet: rollout %.12s rolled back to %.12s: %s", candidate, baseline, reason)
	var baselineModel []byte
	if baseline != "" {
		if model, err := c.blob(baseline); err == nil {
			baselineModel = model
			for id := range canaries {
				if err := c.cfg.Registry.push(id, baseline, model); err != nil {
					c.logf("fleet: rollback push %.12s to %s: %v", baseline, id, err)
				}
			}
		} else {
			c.logf("fleet: rollback: %v", err)
		}
	}
	if c.cfg.OnRollback != nil {
		c.cfg.OnRollback(baseline, baselineModel)
	}
}

// clearRolloutLocked resets the state machine to idle; c.mu held.
func (c *Controller) clearRolloutLocked() {
	c.phase = PhaseIdle
	c.candidate, c.baseline = "", ""
	c.canaries = nil
	c.nonCanaryBase = nil
	c.preAssessed, c.preUnknown = 0, 0
}

// Recover resumes a journaled rollout after a controller restart. It
// replays the rollout events store.Open found: a started event with no
// matching promoted/rolled-back leaves the controller canarying the
// same candidate on the same canary set — gateways re-registering are
// re-pushed the right bank by ModelForGateway, and judgment windows
// restart at each canary's next ack. Call after SetCurrent and before
// serving.
func (c *Controller) Recover(rec *store.Recovery) error {
	if rec == nil {
		return nil
	}
	var candidate, baseline string
	var canaries []string
	inFlight := false
	for _, ev := range rec.Events {
		switch ev.Kind {
		case store.EvRolloutStarted:
			candidate, baseline = ev.Model, ev.BaselineModel
			canaries = append([]string(nil), ev.Canaries...)
			inFlight = len(canaries) > 0
		case store.EvRolloutPromoted, store.EvRolloutRolledBack:
			inFlight = false
		}
	}
	if !inFlight {
		return nil
	}
	// The candidate's bytes must still load, or there is nothing to
	// push: journal the abandonment rather than wedging the machine.
	if _, err := c.blob(candidate); err != nil {
		c.journal(store.Event{Kind: store.EvRolloutRolledBack, Model: candidate, BaselineModel: baseline})
		c.cfg.Metrics.incRollout(false)
		c.logf("fleet: recovered rollout %.12s abandoned, model bytes unavailable: %v", candidate, err)
		return nil
	}
	c.mu.Lock()
	c.phase = PhaseCanarying
	c.candidate = candidate
	c.baseline = baseline
	c.canaries = make(map[string]*canaryState, len(canaries))
	for _, id := range canaries {
		c.canaries[id] = &canaryState{}
	}
	c.nonCanaryBase = make(map[string][2]uint64)
	c.preAssessed, c.preUnknown = 0, 0
	c.mu.Unlock()
	c.cfg.Metrics.setCanarying(true)
	c.logf("fleet: resumed rollout %.12s (canaries %v) from the journal", candidate, canaries)
	c.pushToCanaries(candidate)
	return nil
}
