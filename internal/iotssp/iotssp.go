// Package iotssp implements the IoT Security Service of Sect. III-B:
// the cloud-side component that classifies device fingerprints sent by
// Security Gateways, assesses the identified type against a
// vulnerability database, and returns the isolation level the gateway
// must enforce. Per the paper, the service is stateless with respect to
// its clients: it receives a fingerprint and returns an assessment, and
// stores nothing about the requesting gateway (which may reach it
// through an anonymization network).
package iotssp

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/vulndb"
)

// Assessment is the service's answer for one fingerprint. Its slices are
// shared — the in-process service hands every device of a type the
// type's registered endpoints and the database's records — and
// read-only: a holder that needs to change one copies it first.
type Assessment struct {
	// Type is the identified device-type (core.Unknown if none).
	Type core.TypeID
	// Known reports whether any classifier accepted the fingerprint.
	Known bool
	// Level is the isolation level the gateway must enforce:
	// vulnerable → restricted, clean → trusted, unknown → strict.
	Level sdn.IsolationLevel
	// PermittedIPs lists the remote endpoints a Restricted device may
	// reach (its vendor cloud service).
	PermittedIPs []netip.Addr
	// Vulnerabilities lists the records that justified the level.
	Vulnerabilities []vulndb.Record
}

// Assessor is the capability the Security Gateway depends on; the
// in-process Service and the HTTP client both implement it.
type Assessor interface {
	Assess(fp fingerprint.Fingerprint) (Assessment, error)
}

// Service is the in-process IoT Security Service.
type Service struct {
	mu        sync.RWMutex
	id        *core.Identifier
	db        *vulndb.DB
	endpoints map[core.TypeID][]netip.Addr
	// unknownSink, when set, receives every fingerprint no classifier
	// accepted — the feed of the online-learning loop. It is invoked
	// after the service lock is released (see Assess), so a sink may
	// call back into the service (HasType, PromoteType) without
	// deadlocking.
	unknownSink func(fingerprint.Fingerprint)
	// results pools the identification scratch of Assess, which keeps
	// only the type of each answer.
	results sync.Pool
}

var _ Assessor = (*Service)(nil)

// New assembles a service from a trained identifier and a vulnerability
// database.
func New(id *core.Identifier, db *vulndb.DB) *Service {
	return &Service{
		id:        id,
		db:        db,
		endpoints: make(map[core.TypeID][]netip.Addr),
	}
}

// SetEndpoints registers the permitted cloud endpoints for a
// device-type, returned (sorted) with Restricted assessments. It keeps a
// sorted copy of ips, which Restricted assessments share and a later
// SetEndpoints replaces, never changes.
func (s *Service) SetEndpoints(t core.TypeID, ips []netip.Addr) {
	sorted := append([]netip.Addr(nil), ips...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endpoints[t] = sorted
}

// Install puts a new classifier bank into service — the one way a bank
// arrives after boot, whatever its source: the model store (SIGHUP), a
// fleet push, a rollout rollback. The bank must be non-nil and hold at
// least one trained type; a rejected install leaves the serving bank
// untouched. In-flight assessments finish against the bank they started
// with.
func (s *Service) Install(id *core.Identifier) error {
	if id == nil || id.NumTypes() == 0 {
		return errors.New("iotssp: installed identifier has no trained types")
	}
	s.swap(nil, id)
	return nil
}

// swap is the only place the serving pointer moves after New, and it
// binds next for service as it does: next takes the outgoing bank's
// worker bound, metrics bundle and cache size — as a fresh, empty cache
// (core.Identifier.AdoptRuntime) — so no answer, at either cache level,
// is ever served from a bank older than the last swap, and no caller
// has to remember to make that so. A bank is never changed, only
// rebound. A non-nil expect makes the swap conditional on expect still
// serving; swap reports whether it happened.
func (s *Service) swap(expect, next *core.Identifier) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if expect != nil && s.id != expect {
		return false
	}
	next.AdoptRuntime(s.id)
	s.id = next
	return true
}

// Types returns the known device-types.
func (s *Service) Types() []core.TypeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.id.Types()
}

// HasType reports whether the current bank has a classifier for t.
func (s *Service) HasType(t core.TypeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, have := range s.id.Types() {
		if have == t {
			return true
		}
	}
	return false
}

// Identifier returns the currently serving classifier bank. The bank
// may be swapped out at any moment by Install or PromoteType;
// callers get a consistent snapshot, not a live view.
func (s *Service) Identifier() *core.Identifier {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.id
}

// SetUnknownSink registers (or, with nil, removes) the callback that
// receives every fingerprint rejected by all classifiers. The sink runs
// on the assessing goroutine after the service lock is released: keep
// it fast (hand off to a queue) or assessments serialize behind it.
func (s *Service) SetUnknownSink(fn func(fingerprint.Fingerprint)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unknownSink = fn
}

// Assess classifies the fingerprint and derives the isolation level.
func (s *Service) Assess(fp fingerprint.Fingerprint) (Assessment, error) {
	res, _ := s.results.Get().(*core.Result)
	if res == nil {
		res = new(core.Result)
	}
	s.mu.RLock()
	s.id.IdentifyInto(fp, res)
	a := s.assessmentLocked(res.Type)
	sink := s.unknownSink
	s.mu.RUnlock()
	s.results.Put(res)
	// The sink fires outside the lock so it can call back into the
	// service — PromoteType write-locks, and a sink holding even a read
	// lock would deadlock against it.
	if !a.Known && sink != nil {
		sink(fp)
	}
	return a, nil
}

// promoteMinAccept is PromoteType's validation gate: the minimum
// fraction of the promoted cluster's fingerprints the freshly trained
// bank must identify as the new type for the swap to happen. A cluster
// whose members scatter across existing types would only add noise.
const promoteMinAccept = 0.5

var (
	// ErrBankChanged reports that the serving bank was replaced
	// concurrently on every promotion attempt; the caller should
	// re-observe and retry with fresh evidence.
	ErrBankChanged = errors.New("iotssp: bank changed during promotion")
	// ErrValidationFailed reports that the candidate bank did not
	// identify enough of the cluster as the new type.
	ErrValidationFailed = errors.New("iotssp: promoted type failed validation")
)

// promoteRetries bounds the grow-validate-swap attempts when the serving
// bank keeps changing under the promotion (another promotion or a
// SIGHUP reload landing first).
const promoteRetries = 3

// PromoteType trains a classifier for a new device-type and hot-swaps
// it into service without ever blocking assessments on training: the
// next bank is built from the serving one (core.Identifier.WithType,
// which trains only the new type's classifier and leaves the serving
// bank as it was), validated against the cluster that proposed it, and
// only then is the bank pointer swapped — through the same step as
// Install (swap). The validation pass runs on the unbound new bank, so
// it counts in no metrics series and touches no serving cache. If
// another swap landed in the meantime, the promotion rebuilds from the
// new bank, up to promoteRetries times (compare-and-swap on the bank
// pointer, with training as the expensive "compute" step). On success
// the new bank is returned so the caller can persist it.
func (s *Service) PromoteType(t core.TypeID, fps []fingerprint.Fingerprint) (*core.Identifier, error) {
	if t == core.Unknown {
		return nil, errors.New("iotssp: cannot promote the unknown type")
	}
	if len(fps) == 0 {
		return nil, errors.New("iotssp: no fingerprints to promote")
	}
	for attempt := 0; attempt < promoteRetries; attempt++ {
		s.mu.RLock()
		base := s.id
		s.mu.RUnlock()
		next, err := base.WithType(t, fps)
		if err != nil {
			return nil, err
		}
		accepted := 0
		for _, res := range next.IdentifyBatch(fps) {
			if res.Type == t {
				accepted++
			}
		}
		if frac := float64(accepted) / float64(len(fps)); frac < promoteMinAccept {
			return nil, fmt.Errorf("%w: %q accepted %d/%d members (min %.2f)",
				ErrValidationFailed, t, accepted, len(fps), promoteMinAccept)
		}
		if s.swap(base, next) {
			return next, nil
		}
		// The bank moved under us (concurrent promotion or hot reload):
		// next is trained against a stale pool, throw it away and
		// rebuild from the new bank.
	}
	return nil, ErrBankChanged
}

// assessmentLocked derives the isolation level for an identified type;
// the caller holds at least a read lock.
func (s *Service) assessmentLocked(t core.TypeID) Assessment {
	if t == core.Unknown {
		// Unknown devices get strict isolation (Sect. III-B).
		return Assessment{Type: core.Unknown, Level: sdn.Strict}
	}
	a := Assessment{Type: t, Known: true}
	a.Vulnerabilities = s.db.Query(string(t))
	if len(a.Vulnerabilities) > 0 {
		a.Level = sdn.Restricted
		a.PermittedIPs = s.endpoints[t]
	} else {
		a.Level = sdn.Trusted
	}
	return a
}
