package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
)

// Inputs. Everything the program under test receives is generated here
// from internal/devices under the run's seed: marshaled frames for the
// gateway workloads, fingerprints for service_identify.

// Frame timestamps carry three things through the capture ring without
// any shared state between generator and handler:
//
//   - the device-local epoch (whole epochUnits): bumping it by one puts
//     a frame far past the gateway's 10 s idle gap, which is what ends a
//     setup phase and makes the next frame the join's trigger;
//   - the moment the frame was due, as time elapsed since the run
//     started (always far below one epochUnit);
//   - four flag bits in the lowest nanoseconds.
const epochUnit = time.Hour

var tsBase = time.Unix(1460000000, 0).UTC()

const (
	flagSampled int64 = 1 << iota // record this frame's latency
	flagTrigger                   // first operational frame of a cold join
	flagSetup                     // setup-phase frame of a cold join
	flagTraced                    // record this frame's spans
	flagMask    int64 = 15
)

func stamp(epoch int64, elapsed time.Duration, flags int64) time.Time {
	return tsBase.Add(time.Duration(epoch*int64(epochUnit) + (int64(elapsed)&^flagMask | flags)))
}

func unstamp(ts time.Time) (elapsed time.Duration, flags int64) {
	off := int64(ts.Sub(tsBase))
	return time.Duration(off % int64(epochUnit) &^ flagMask), off & flagMask
}

// Outcome states a device's last gateway callback left it in.
const (
	outcomeNone uint32 = iota
	outcomeAssessed
	outcomeQuarantined
)

// device is one modeled IoT device: its pre-marshaled frames plus the
// little state generator and callbacks share.
type device struct {
	mac     packet.MAC
	profile string
	// setup is the device's setup-phase capture; ops its operational and
	// standby frames with the source MAC patched to this device. ops[0]
	// doubles as the trigger frame of a cold join.
	setup [][]byte
	ops   [][]byte

	// Generator-owned. bursts counts the operational bursts injected
	// since the pre-join, for the forwarding oracle.
	epoch    int64
	resident bool
	bursts   int64

	// left is set by the leaver goroutine once RemoveDevice returned
	// (churn_durable), so the generator knows the rejoin may start.
	left atomic.Bool

	// trigAt is when the current join's trigger frame was due (elapsed
	// since run start); written by the generator before it injects the
	// trigger, read by OnAssessed.
	trigAt atomic.Int64
	// enteredAt and handledAt are when the pump handler was entered for
	// that trigger and when HandlePacket returned (traced runs only).
	enteredAt atomic.Int64
	handledAt atomic.Int64
	// outcome packs the last OnAssessed/OnQuarantined for the oracle:
	// state | level<<4 | type index<<8.
	outcome atomic.Uint32
	// class indexes the device's setup fingerprint among the pool's
	// distinct fingerprints, sig is its trace signature (both filled by
	// newReference).
	class int
	sig   uint64
}

func (d *device) setOutcome(state uint32, level int, typeIdx uint32) {
	d.outcome.Store(state | uint32(level)<<4 | typeIdx<<8)
}

// pool is the generated device population.
type pool struct {
	devs  []*device
	byMAC map[packet.MAC]*device
}

// opVariants is how many operation+standby captures are generated per
// profile; devices of a profile cycle through them.
const opVariants = 4

// genPool models n devices spread evenly over the catalog.
func genPool(seed int64, n int) (*pool, error) {
	catalog := devices.Catalog()
	p := &pool{byMAC: make(map[packet.MAC]*device, n)}
	per := (n + len(catalog) - 1) / len(catalog)
	for pi, prof := range catalog {
		want := per
		if rest := n - len(p.devs); rest < want {
			want = rest
		}
		if want <= 0 {
			break
		}
		// Operational traffic: a few variants per profile, shared by its
		// devices with the source MAC rewritten.
		rng := rand.New(rand.NewSource(seed*1000003 + int64(pi)*7919 + 1))
		var variants [opVariants][][]byte
		for v := range variants {
			op := prof.GenerateOperation(rng, 1)
			sb := prof.GenerateStandby(rng, 1)
			for _, pk := range append(op.Packets, sb.Packets...) {
				frame, err := pk.Marshal()
				if err != nil {
					return nil, fmt.Errorf("pool: marshal %s operation: %w", prof.ID, err)
				}
				variants[v] = append(variants[v], frame)
			}
		}
		// A MAC collision (three random bytes under one OUI) would merge
		// two devices into one; draw a few spare captures and skip any.
		caps := devices.GenerateCaptures(prof, want+8, seed*1000003+int64(pi)*7919)
		made := 0
		for _, c := range caps {
			if made == want {
				break
			}
			if _, dup := p.byMAC[c.MAC]; dup {
				continue
			}
			d := &device{mac: c.MAC, profile: prof.ID}
			for _, pk := range c.Packets {
				frame, err := pk.Marshal()
				if err != nil {
					return nil, fmt.Errorf("pool: marshal %s setup: %w", prof.ID, err)
				}
				d.setup = append(d.setup, frame)
			}
			for _, f := range variants[made%opVariants] {
				frame := append([]byte(nil), f...)
				copy(frame[6:12], d.mac[:])
				d.ops = append(d.ops, frame)
			}
			p.devs = append(p.devs, d)
			p.byMAC[d.mac] = d
			made++
		}
		if made < want {
			return nil, fmt.Errorf("pool: only %d of %d distinct MACs for %s", made, want, prof.ID)
		}
	}
	// Interleave profiles so neighbouring joins differ in type, as a
	// household's devices do.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.devs), func(i, j int) { p.devs[i], p.devs[j] = p.devs[j], p.devs[i] })
	return p, nil
}

// setupFingerprint is the fingerprint the gateway must arrive at for d:
// the decoded setup frames through fingerprint.FromPackets.
func (d *device) setupFingerprint() (fingerprint.Fingerprint, error) {
	pkts := make([]*packet.Packet, len(d.setup))
	for i, f := range d.setup {
		pk, err := packet.Decode(f)
		if err != nil {
			return fingerprint.Fingerprint{}, fmt.Errorf("pool: decode %s frame %d: %w", d.profile, i, err)
		}
		pkts[i] = pk
	}
	return fingerprint.FromPackets(pkts), nil
}

// genFingerprints returns the distinct fingerprints among perProfile
// setup captures of every catalog profile, plus how many captures were
// drawn (the measured sharing goes into the output).
func genFingerprints(seed int64, perProfile int) (fps []fingerprint.Fingerprint, captures int) {
	seen := make(map[fingerprint.Key]struct{})
	for pi, prof := range devices.Catalog() {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(pi)*7919 + 2))
		for i := 0; i < perProfile; i++ {
			fp := fingerprint.FromPackets(prof.Generate(rng).Packets)
			captures++
			k := fp.CanonicalKey()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			fps = append(fps, fp)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fps), func(i, j int) { fps[i], fps[j] = fps[j], fps[i] })
	return fps, captures
}
