package main

import (
	"fmt"
	"time"

	"iotsentinel/internal/core"
)

// The five generators. Each runs on one goroutine — the load is one
// generator plus the capture readers, sized to the host's cores — and
// measures for a given time; what a phase completed is counted, not
// fixed beforehand.

// drive runs the workload for d and leaves the system drained.
func (r *run) drive(d time.Duration, p *phase) error {
	switch r.wl.Name {
	case wlSteadyForward:
		return r.driveForward(d)
	case wlJoinStorm:
		return r.driveStorm(d)
	case wlChurnDurable:
		return r.drivePaced(d, p, perSecond(r.cfg.sc.churnRate), 0, r.visitChurn)
	case wlPacedRemote:
		return r.drivePaced(d, p, 0, perSecond(r.cfg.sc.remoteRate), r.visitJoin)
	case wlServiceIdentify:
		return r.driveIdentify(d)
	}
	return fmt.Errorf("no generator for workload %q", r.wl.Name)
}

func perSecond(rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}

// driveForward is steady_forward: operational bursts of resident,
// assessed devices, as fast as the lossless ring takes them.
func (r *run) driveForward(d time.Duration) error {
	for end := r.since() + d; r.since() < end; {
		r.burst(r.nextDevice())
	}
	return r.drain()
}

// driveStorm is join_storm: every visit removes the device and joins it
// again, with at most a window of joins in flight.
func (r *run) driveStorm(d time.Duration) error {
	for end := r.since() + d; ; {
		r.acquire()
		if r.since() >= end {
			r.release()
			break
		}
		r.join(r.nextDevice())
	}
	return r.drain()
}

// drivePaced is the open loop. Every frame has its own due time on a
// fixed schedule, whatever the system does (a device's frames are
// spread over time, as a device sends them, and the ring hands each to
// a waiting reader at once). How late the generator itself ran is
// recorded, and the phase is invalid if the system could not keep up
// with the schedule. The schedule is fixed either in frames (perFrame)
// or in visits, each visit's frames spread evenly over perVisit.
func (r *run) drivePaced(d time.Duration, p *phase, perFrame, perVisit time.Duration, visit func()) error {
	r.calibrateSpin()
	start := r.since()
	end := start + d
	r.pacing, r.clockAt, r.clockStep = true, start, perFrame
	// The backlog, in the workload's unit of work (frames sent and not
	// handled, or joins issued and not enforced), is read a hundred times
	// over the phase.
	var behind []float64
	every := d / 100
	next := start + every
	for k := int64(0); r.clockAt < end; k++ {
		if perVisit > 0 {
			dev := r.pool.devs[r.next]
			r.clockAt = start + time.Duration(k)*perVisit
			r.clockStep = perVisit / time.Duration(len(dev.setup)+1)
			if r.clockAt >= end {
				break
			}
		}
		visit()
		r.visits++
		if r.clockAt >= next {
			next += every
			if r.frameOps() {
				behind = append(behind, float64(r.backlog()))
			} else {
				behind = append(behind, float64(r.issued-r.enforced.Load()))
			}
		}
	}
	r.pacing = false
	// The backlog is growing if its median over the last quarter of the
	// phase exceeds that over the second quarter by more than a quarter of
	// a second of the offered load: what a system 5 % short of its schedule
	// gains between the two. (Medians: a checkpoint or a stall of the host
	// in progress at the moment of a reading is not growth. At 20 ms of the
	// load a busy host, stealing half the processor for the last seconds of
	// a phase, failed one run in fifty.)
	if n := len(behind); n >= 8 {
		perOp := perFrame
		if perVisit > 0 {
			perOp = perVisit
		}
		slack := float64(backlogSlack / perOp)
		before, after := median(behind[n/4:n/2]), median(behind[3*n/4:])
		if after > before+slack {
			p.invalid = fmt.Sprintf("backlog still growing at the end: median %.0f %ss in the second quarter, %.0f in the last", before, r.wl.Op, after)
		}
	}
	return r.drain()
}

// backlogSlack is how much of its schedule an open loop may have
// outstanding and still be valid: what the backlog may gain between the
// second and the last quarter of a phase, and how late the generator may
// itself run (maxOwnLateness).
const backlogSlack = 250 * time.Millisecond

// visitJoin is paced_remote's visit: one cold join.
func (r *run) visitJoin() {
	r.join(r.nextDevice())
}

// leaveOneIn is churn_durable's share of visits to a resident device
// that are a leave.
const leaveOneIn = 50

// visitChurn is churn_durable's visit. A device that left comes back
// rejoinAfter visits later with a cold join; otherwise the next device
// of the round robin either leaves (1 visit in leaveOneIn: a durable removal,
// made by the leaver goroutine) or sends its operational burst.
func (r *run) visitChurn() {
	if len(r.rejoin) > 0 && r.rejoin[0].at <= r.visits && r.rejoin[0].d.left.Load() {
		d := r.rejoin[0].d
		r.rejoin = r.rejoin[1:]
		r.join(d)
		return
	}
	d := r.nextDevice()
	for !d.resident {
		d = r.nextDevice()
	}
	if r.rng.next()%leaveOneIn == 0 && len(r.rejoin) < len(r.pool.devs)/4 {
		d.resident = false
		d.left.Store(false)
		r.removals++
		r.rejoin = append(r.rejoin, rejoin{d: d, at: r.visits + r.cfg.sc.rejoinAfter})
		r.leave <- d
		return
	}
	r.burst(d)
}

// assessBlock is how many consecutive Assess calls make one latency
// sample of service_identify.
const assessBlock = 64

// driveIdentify is service_identify: one caller assessing the distinct
// fingerprints in turn. Before every pass the bank's runtime is
// re-applied — what each model install does — so the cache starts empty
// and every assessment is a miss. (Before the first pass too: the phase
// before this one ended in the middle of a pass and left its
// fingerprints cached.)
func (r *run) driveIdentify(d time.Duration) error {
	svc, id := r.topo.svc, r.topo.id
	end := r.since() + d
	var block time.Duration
	for {
		if err := id.ApplyRuntime(0, core.DefaultCacheSize); err != nil {
			return err
		}
		for i, fp := range r.fps {
			t0 := r.since()
			if t0 >= end {
				return nil
			}
			a, err := svc.Assess(fp)
			now := r.since()
			if err != nil || !r.ref.matches(i, a) {
				r.mismatches.Add(1)
			}
			if r.tracing.Load() {
				r.tr.assessLat.add(now - t0)
			}
			// Fingerprints differ tenfold in what they cost the bank, and
			// which are cheapest depends on the seed: the latency sample is
			// the mean over a block of calls, not one call.
			block += now - t0
			if r.assessed%assessBlock == assessBlock-1 {
				r.opLat.add(block / assessBlock)
				block = 0
			}
			r.assessed++
			r.lastDone.Store(int64(now))
		}
	}
}
