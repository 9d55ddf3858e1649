package gateway

import (
	"time"
)

// The gateway's periodic housekeeping runs on managed goroutines:
// construction starts the worker, Shutdown stops it, waits for it to
// exit and returns what it counted. Shutdown is safe to call at most
// once.

// worker is the goroutine behind each of them.
type worker struct {
	stop chan struct{}
	done chan struct{}
}

// startWorker calls tick every period (non-positive selects fallback)
// until shutdown.
func startWorker(period, fallback time.Duration, tick func(now time.Time)) worker {
	if period <= 0 {
		period = fallback
	}
	w := worker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case now := <-ticker.C:
				tick(now)
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

func (w worker) shutdown() {
	close(w.stop)
	<-w.done
}

// ExpiryWorker periodically sweeps the switch's flow table, evicting
// idle flows — the housekeeping a Floodlight deployment gets from
// OpenFlow idle timeouts — and finalizes setup captures of devices that
// went silent (completion is otherwise only detected on the device's
// next packet, so a device that never speaks again would leak its
// capture).
type ExpiryWorker struct {
	worker
	expired   int // flow evictions
	finalized int // idle captures completed
}

// NewExpiryWorker starts a sweeper over the gateway's flow table and
// capture set with the given period (non-positive selects 5 s).
func NewExpiryWorker(g *Gateway, period time.Duration) *ExpiryWorker {
	w := &ExpiryWorker{}
	w.worker = startWorker(period, 5*time.Second, func(now time.Time) {
		w.expired += g.Switch().Table().Expire(now)
		w.finalized += g.FinalizeIdleCaptures(now)
	})
	return w
}

// Shutdown returns the number of expired flows.
func (w *ExpiryWorker) Shutdown() int {
	w.shutdown()
	return w.expired
}

// Finalized returns the number of idle captures the worker completed.
// Only valid after Shutdown.
func (w *ExpiryWorker) Finalized() int { return w.finalized }

// RetryWorker periodically drains the gateway's quarantine queue,
// re-submitting parked fingerprints to the security service and
// promoting devices whose assessment now succeeds. When the service's
// circuit breaker is open the drain fails fast on its first call, so an
// idle tick costs one rejected request at most; once the breaker
// half-opens, the probe doubles as the first re-assessment.
type RetryWorker struct {
	worker
	promoted int
}

// NewRetryWorker starts a drain loop over the gateway's quarantine
// queue with the given period (non-positive selects 5 s).
func NewRetryWorker(g *Gateway, period time.Duration) *RetryWorker {
	w := &RetryWorker{}
	w.worker = startWorker(period, 5*time.Second, func(now time.Time) {
		n, _ := g.RetryQuarantined(now)
		w.promoted += n
	})
	return w
}

// Shutdown returns the number of devices promoted out of quarantine.
func (w *RetryWorker) Shutdown() int {
	w.shutdown()
	return w.promoted
}

// CheckpointWorker periodically checkpoints the gateway, so that a
// long-running gateway's journal — and with it the time a restart takes
// to replay it — stays bounded by one period of churn instead of growing
// with uptime. A tick on which the journal has not moved since the
// worker's last snapshot does nothing; without a Config.Store every tick
// is such a tick.
type CheckpointWorker struct {
	worker
	taken   int    // snapshots written
	covered uint64 // the journal's sequence number at the last of them
}

// NewCheckpointWorker starts a checkpoint loop over the gateway with the
// given period (non-positive selects one minute).
func NewCheckpointWorker(g *Gateway, period time.Duration) *CheckpointWorker {
	w := &CheckpointWorker{}
	w.worker = startWorker(period, time.Minute, func(time.Time) { w.tick(g) })
	return w
}

func (w *CheckpointWorker) tick(g *Gateway) {
	if g.cfg.Store == nil {
		return
	}
	// Records enqueued while the snapshot is being written count as
	// uncovered: the next tick snapshots again.
	seq := g.cfg.Store.Seq()
	if seq == w.covered {
		return
	}
	if err := g.Checkpoint(); err != nil {
		g.storeError(err)
		return
	}
	w.covered = seq
	w.taken++
}

// Shutdown returns the number of snapshots written.
func (w *CheckpointWorker) Shutdown() int {
	w.shutdown()
	return w.taken
}
