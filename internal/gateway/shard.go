package gateway

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
)

// Device-state sharding. All per-device state is keyed by MAC, so it
// partitions cleanly: it lives in a power-of-two number of shards, a
// MAC's shard being the top bits of its partition (packet.MACWord.Part,
// the one the capture fanout and the switch's stripes split by), and
// packets from different devices touch different locks. A shard holds
// one map, from MAC word to the record of the device's current
// incarnation (device): its DeviceInfo, its open setup capture and its
// parked fingerprint all live there, under the shard's lock and nowhere
// else.
//
// A thread never holds two shard locks at once; sweeps (finishCaptures,
// RetryQuarantined, Devices, …) lock shards one at a time and merge in
// MAC order so their results stay deterministic regardless of the
// shard count.

// DefaultShards is the shard count selected when Config.Shards is 0.
// Sharding is behavior-transparent — any count produces identical
// device states — so the default favors throughput.
const DefaultShards = 8

// DefaultAssessQueue is the per-shard assessment queue depth of a
// deployed gateway (Config.AssessQueue; the zero value of that field
// stays inline assessment, the reference the queue is tested against).
// It is a constant and not a flag because a gateway must run the
// pipeline the benchmark measures: bench/topology.go builds its
// gateways at this depth, and internal/node builds the daemon's and the
// soak's.
const DefaultAssessQueue = 256

// handleSampleEvery is the HandlePacket latency sampling period: one
// frame in this many, per shard, is timed into
// gateway_handle_packet_seconds.
const handleSampleEvery = 16

// shard is one stripe of the gateway's per-device state.
type shard struct {
	mu sync.Mutex
	// tick counts the shard's HandlePacket calls for the latency
	// sample. It sits beside the lock every call takes anyway, so the
	// count costs no cache line of its own.
	tick    atomic.Uint32
	devices map[packet.MACWord]*device
	// Shards are allocated one by one and the allocator packs objects
	// of one size class back to back; the pad keeps two shards' locks
	// and ticks out of one cache line.
	_ [64]byte
}

func newShard() *shard {
	return &shard{devices: make(map[packet.MACWord]*device)}
}

// device is one incarnation of a device, the record its shard maps its
// MAC to from its first frame until RemoveDevice; a rejoin makes a new
// one. A verdict lands only on the record it was made for (lockOwner).
type device struct {
	info DeviceInfo
	// cap is the open setup capture, nil once claimed: it is claimed
	// before its verdict exists, so only a monitoring record holds one.
	cap *fingerprint.SetupCapture
	// parked is the fingerprint awaiting a retry, set only while the
	// device is quarantined and maxQuarantined allowed it.
	parked *quarantined
}

// shardOf returns the shard owning mac's state.
func (g *Gateway) shardOf(mac packet.MAC) *shard {
	return g.shards[mac.Word().Part(g.shardShift)]
}

// ErrAssessBacklog is the quarantine cause recorded when the bounded
// assessment queue overflowed and a pending fingerprint was dropped
// from it: the device fails closed (strict isolation) and the retry
// worker re-submits it once the backlog clears.
var ErrAssessBacklog = errors.New("gateway: assessment queue backlog, fingerprint parked for retry")

// assessJob is one finished setup capture awaiting identification, and
// every capture finishes as one: completed by a packet (HandlePacket),
// forced (FinishSetup) or swept (finishCaptures). It carries the capture,
// not the 2.2 KB fingerprint: the queues hold pointers, and the drain
// worker builds the fingerprint off the packet path. owner is the record
// the capture was claimed from; the verdict lands on it or nowhere.
type assessJob struct {
	owner  *device
	cap    *fingerprint.SetupCapture
	ts     time.Time
	queued time.Time // Metrics.queueClock at enqueue
}

// assess queries the IoTSSP and installs the enforcement rule; on
// failure the device is quarantined fail-closed instead.
func (j assessJob) assess(g *Gateway) {
	fp := j.cap.Fingerprint()
	a, err := g.assessor.Assess(fp)
	if err != nil {
		g.quarantineDevice(j.owner, &fp, j.ts, err)
		return
	}
	g.apply(j.owner, nil, a, j.ts)
}

func (j assessJob) park(g *Gateway) {
	fp := j.cap.Fingerprint()
	g.quarantineDevice(j.owner, &fp, j.ts, ErrAssessBacklog)
}

// asyncAssess is the off-path identification pipeline: one bounded
// queue and one drain goroutine per shard. HandlePacket enqueues
// finished captures and returns immediately; overflow evicts the
// oldest pending job (drop-oldest — the freshest fingerprint is the
// one most likely to still matter) and parks it in quarantine, so
// forwarding never blocks on the classifier bank and no fingerprint is
// silently lost.
type asyncAssess struct {
	queues   []chan assessJob
	stop     chan struct{}
	wg       sync.WaitGroup
	inflight atomic.Int64
}

func newAsyncAssess(g *Gateway, shards, depth int) *asyncAssess {
	a := &asyncAssess{
		queues: make([]chan assessJob, shards),
		stop:   make(chan struct{}),
	}
	for i := range a.queues {
		a.queues[i] = make(chan assessJob, depth)
		a.wg.Add(1)
		go a.drain(g, a.queues[i])
	}
	return a
}

func (a *asyncAssess) drain(g *Gateway, q chan assessJob) {
	defer a.wg.Done()
	for {
		select {
		case job := <-q:
			g.cfg.Metrics.queueDepthAdd(-1)
			g.cfg.Metrics.observeQueueWait(job.queued)
			job.assess(g)
			a.inflight.Add(-1)
		case <-a.stop:
			// Park whatever is still queued so a shutdown mid-storm
			// fails closed instead of forgetting devices.
			a.parkQueued(g, q)
			return
		}
	}
}

// parkQueued empties q into quarantine without blocking.
func (a *asyncAssess) parkQueued(g *Gateway, q chan assessJob) {
	for {
		select {
		case job := <-q:
			g.cfg.Metrics.queueDepthAdd(-1)
			job.park(g)
			a.inflight.Add(-1)
		default:
			return
		}
	}
}

// enqueue hands one finished capture to the drain worker for shard i,
// never blocking: on overflow the oldest pending job is evicted and
// quarantined for retry. The caller must not hold any shard lock.
func (a *asyncAssess) enqueue(g *Gateway, i int, job assessJob) {
	a.inflight.Add(1)
	job.queued = g.cfg.Metrics.queueClock()
	for {
		select {
		case a.queues[i] <- job:
			g.cfg.Metrics.queueDepthAdd(1)
			select {
			case <-a.stop:
				// Lost the race with Close: the drain worker may
				// have swept the queue and gone before the send, and
				// nobody would ever take the job — its device would
				// stay monitoring, forwarded unenforced. Sweep again
				// from here; each job is received exactly once,
				// whoever gets it.
				a.parkQueued(g, a.queues[i])
			default:
			}
			return
		default:
		}
		// Queue full: evict the oldest job (if a drain worker has not
		// raced us to it) and park it fail-closed, then retry the send.
		select {
		case old := <-a.queues[i]:
			g.cfg.Metrics.queueDepthAdd(-1)
			g.cfg.Metrics.incQueueDrop()
			old.park(g)
			a.inflight.Add(-1)
		default:
		}
	}
}

// shutdown stops the drain workers and waits for them; queued jobs are
// quarantined (see drain).
func (a *asyncAssess) shutdown() {
	close(a.stop)
	a.wg.Wait()
}

// Close shuts down the asynchronous assessment pipeline, if one is
// configured: drain workers exit and still-queued fingerprints are
// parked in quarantine (fail closed). Captures that finish afterwards
// assess synchronously; one that finishes while Close runs is queued
// and parked, or assessed inline, never dropped. Safe to call more
// than once and concurrently with HandlePacket.
func (g *Gateway) Close() {
	if a := g.async.Swap(nil); a != nil {
		a.shutdown()
	}
}

// WaitAssessIdle blocks until the asynchronous assessment pipeline has
// no queued or in-flight work, polling at a small interval (loadgen and
// deterministic tests use it as a drain barrier). It returns
// immediately when the pipeline is synchronous.
func (g *Gateway) WaitAssessIdle() {
	a := g.async.Load()
	if a == nil {
		return
	}
	for a.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}
