package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/netsim"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
)

// The correctness oracle. What the system under test arrived at — the
// state, type and level its callbacks reported for every device, its
// rule table, its switch counters, its journal — is compared with what
// the layers give when called directly, one at a time, on the same
// inputs.

// answer is what an assessment decides.
type answer struct {
	typ       core.TypeID
	known     bool
	level     sdn.IsolationLevel
	permitted []netip.Addr
}

func answerOf(a iotssp.Assessment) answer {
	return answer{typ: a.Type, known: a.Known, level: a.Level, permitted: a.PermittedIPs}
}

// reference holds the distinct fingerprints of the run's inputs and,
// once assess has run, the answer a direct Service.Assess gives each.
type reference struct {
	fps     []fingerprint.Fingerprint
	answers []answer
}

func (ref *reference) matches(i int, a iotssp.Assessment) bool {
	want := ref.answers[i]
	return a.Type == want.typ && a.Level == want.level && a.Known == want.known
}

// buildReference fingerprints every device's setup frames the direct
// way — packet.Decode, fingerprint.FromPackets — and groups the devices
// by canonical key. It runs before the phases because the traced run
// matches assessor calls to joins by fingerprint.
func (r *run) buildReference() error {
	ref := &reference{}
	if r.kind() == topoService {
		// The reference answers come from the bank with its cache off, so
		// the timed answers (cache on, every lookup a miss) are checked
		// against the uncached path.
		ref.fps = r.fps
		id := r.topo.id
		if err := id.ApplyRuntime(0, 0); err != nil {
			return err
		}
		if err := ref.assess(r.topo.svc); err != nil {
			return err
		}
		r.ref = ref
		return id.ApplyRuntime(0, core.DefaultCacheSize)
	}
	classes := make(map[fingerprint.Key]int)
	for _, d := range r.pool.devs {
		fp, err := d.setupFingerprint()
		if err != nil {
			return err
		}
		k := fp.CanonicalKey()
		c, seen := classes[k]
		if !seen {
			c = len(ref.fps)
			classes[k] = c
			ref.fps = append(ref.fps, fp)
		}
		d.class = c
		d.sig = signature(&ref.fps[c])
	}
	r.ref = ref
	return nil
}

func (ref *reference) assess(svc *iotssp.Service) error {
	ref.answers = make([]answer, len(ref.fps))
	for i, fp := range ref.fps {
		a, err := svc.Assess(fp)
		if err != nil {
			return fmt.Errorf("oracle: reference assessment: %w", err)
		}
		ref.answers[i] = answerOf(a)
	}
	return nil
}

// verdict is the oracle's finding.
type verdict struct {
	mismatches int64
	notes      []string
	// recoverTime is how long store.Open plus gateway.Recover of the
	// final state dir took (churn_durable).
	recoverTime   time.Duration
	snapshotBytes int64
	ingestedShare float64
}

func (v *verdict) fail(n int64, format string, args ...any) {
	v.mismatches += n
	if len(v.notes) < 12 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// verify runs the workload's oracle on the drained system; the
// reference answers have been computed (reference.assess).
func (r *run) verify() (*verdict, error) {
	v := &verdict{ingestedShare: 1}
	if r.kind() == topoService {
		if n := r.mismatches.Load(); n > 0 {
			v.fail(n, "%d timed assessments differ from the uncached reference", n)
		}
		return v, nil
	}
	t := r.topo

	// Every join ended assessed, with the reference's type and level.
	refLab, err := netsim.NewLab(r.cfg.seed)
	if err != nil {
		return nil, err
	}
	var wrongState, wrongAnswer int64
	for _, d := range r.pool.devs {
		if !d.resident {
			continue
		}
		want := r.ref.answers[d.class]
		out := d.outcome.Load()
		if out&0xf != outcomeAssessed {
			wrongState++
			continue
		}
		if sdn.IsolationLevel(out>>4&0xf) != want.level || r.types[out>>8] != want.typ {
			wrongAnswer++
		}
		refLab.Cache.Put(&sdn.EnforcementRule{
			DeviceMAC:    d.mac,
			Level:        want.level,
			PermittedIPs: want.permitted,
			DeviceType:   string(want.typ),
		})
	}
	if wrongState > 0 {
		v.fail(wrongState, "%d resident devices did not end assessed", wrongState)
	}
	if wrongAnswer > 0 {
		v.fail(wrongAnswer, "%d devices were enforced with another type or level than a direct Assess gives", wrongAnswer)
	}
	live := t.lab.Cache
	if live.Len() != refLab.Cache.Len() {
		v.fail(1, "rule table holds %d rules, reference %d", live.Len(), refLab.Cache.Len())
	}
	liveDigest := live.Digest()
	if liveDigest != refLab.Cache.Digest() {
		v.fail(1, "rule table digest %016x, reference %016x", liveDigest, refLab.Cache.Digest())
	}

	if r.wl.Name == wlSteadyForward {
		if err := r.verifyForwarding(v, refLab); err != nil {
			return nil, err
		}
	}
	if t.kind == topoDurable {
		if err := r.verifyDurable(v, liveDigest); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// verifyForwarding replays one operational burst of every device
// through a single-threaded reference switch holding the reference
// rules; the live switch must have forwarded and dropped exactly that,
// times the bursts the generator injected. (A flow's action depends on
// the rules alone, which are static on this workload, so the counts do
// not depend on how the readers interleaved.)
func (r *run) verifyForwarding(v *verdict, refLab *netsim.Lab) error {
	sw := refLab.Net.Switch()
	var wantFwd, wantDrop uint64
	for _, d := range r.pool.devs {
		before := sw.Stats()
		for i, f := range d.ops {
			pk, err := packet.Decode(f)
			if err != nil {
				return fmt.Errorf("oracle: decode %s op frame %d: %w", d.profile, i, err)
			}
			sw.Process(pk, stamp(d.epoch, 0, 0))
		}
		after := sw.Stats()
		wantFwd += uint64(d.bursts) * (after.Forwarded - before.Forwarded)
		wantDrop += uint64(d.bursts) * (after.Dropped - before.Dropped)
	}
	got := r.topo.lab.Net.Switch().Stats()
	gotFwd, gotDrop := got.Forwarded-r.swBase.Forwarded, got.Dropped-r.swBase.Dropped
	if gotFwd != wantFwd || gotDrop != wantDrop {
		v.fail(1, "switch forwarded %d and dropped %d frames, single-threaded replay %d and %d", gotFwd, gotDrop, wantFwd, wantDrop)
	}
	return nil
}

// verifyDurable closes the fleet link and the store, checks that the
// central side ingested every observation, then re-opens the state dir
// the way a restarted gatewayd does: Recover on a fresh gateway must
// reproduce the live rule table.
func (r *run) verifyDurable(v *verdict, liveDigest uint64) error {
	t := r.topo
	t.closeFleetLink()
	observed, ingested := t.fleetObserved.Load(), t.fleetIngested.Load()
	v.ingestedShare = ratio(float64(ingested), float64(observed))
	if ingested != observed {
		v.fail(1, "fleet server ingested %d of %d observed fingerprints", ingested, observed)
	}
	if n := t.storeErrs.Load(); n > 0 {
		v.fail(n, "%d journal errors", n)
	}
	if err := t.closeStore(); err != nil {
		return fmt.Errorf("oracle: close store: %w", err)
	}
	// The store's snapshot file; its name is not exported.
	if fi, err := os.Stat(filepath.Join(t.stateDir, "snapshot.bin")); err == nil {
		v.snapshotBytes = fi.Size()
	}

	t0 := time.Now()
	st, rec, err := store.Open(t.stateDir, store.Options{})
	if err != nil {
		return fmt.Errorf("oracle: re-open state dir: %w", err)
	}
	defer st.Close()
	lab, err := netsim.NewLab(r.cfg.seed)
	if err != nil {
		return err
	}
	gw := gateway.New(t.svc, lab.Net.Switch(), gateway.Config{Shards: gateway.DefaultShards, Store: st})
	stats, err := gw.Recover(rec, time.Now())
	if err != nil {
		return fmt.Errorf("oracle: recover: %w", err)
	}
	v.recoverTime = time.Since(t0)
	if stats.Degraded {
		v.fail(1, "recovery of the final state dir was degraded")
	}
	if got := lab.Cache.Digest(); got != liveDigest {
		v.fail(1, "recovered rule table digest %016x, live %016x (%s)", got, liveDigest, stats)
	}
	return nil
}
