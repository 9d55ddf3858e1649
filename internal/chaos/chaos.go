// Package chaos is deterministic, seed-driven network-fault injection
// middleware for resilience tests: a net.Conn wrapper (and a Dialer
// factory producing them) that injects the network weather a fleet
// link meets in production — added latency, bandwidth caps, frames
// torn at arbitrary byte offsets, silent blackholes (the half-open
// peer: writes vanish, reads hear nothing), full partitions, and
// mid-stream resets.
//
// Everything a connection does to its traffic is derived from a
// splitmix64 stream seeded by (Config.Seed, connection index), so a
// failing run reproduces from its logged seed: the Nth connection of
// two runs with the same seed tears the same frame at the same byte
// offset. Wall-clock interleaving across goroutines is of course not
// reproducible — the fault *schedule* is.
//
// The wrapper forwards deadlines to the wrapped conn, which is what
// makes it honest middleware: deadline-based liveness detection in the
// code under test sees a blackholed conn exactly the way it would see
// a real silent peer — reads time out, writes "succeed".
package chaos

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the fault mix. The zero value injects nothing: a Dialer
// over a zero Config is a transparent pass-through, so tests can share
// one topology between their faulted and fault-free runs.
type Config struct {
	// Seed roots the deterministic fault schedule. Connection i draws
	// from splitmix64(Seed ^ i), so every conn has its own
	// reproducible stream.
	Seed uint64
	// Latency delays each Read/Write completion by a per-op uniform
	// draw from [0, Latency). 0 disables.
	Latency time.Duration
	// BytesPerSec caps per-conn throughput: each op additionally
	// sleeps bytes/BytesPerSec. 0 disables.
	BytesPerSec int
	// CutAfterBytes tears a connection down after roughly this many
	// bytes have crossed it in either direction. The per-conn budget
	// is jittered deterministically in [0.5, 1.5)× so a fleet of
	// connections does not die in lockstep, and the killing write
	// delivers a torn prefix — a frame cut at an arbitrary byte
	// offset — before the reset. 0 disables.
	CutAfterBytes int
	// DialFailEvery fails every Nth dial with an immediate error
	// (connection refused weather). 0 disables.
	DialFailEvery int
}

// ErrPartitioned is returned by Dial while the dialer is partitioned.
var ErrPartitioned = errors.New("chaos: network partitioned")

// ErrReset is the error a torn write surfaces after delivering its
// prefix.
var ErrReset = errors.New("chaos: connection reset mid-write")

// errDialFault is the deterministic every-Nth dial failure.
var errDialFault = errors.New("chaos: injected dial failure")

// Dialer wraps an inner dial function, producing fault-injecting
// conns with per-connection deterministic schedules, and exposes the
// partition switch that turns every active conn into a half-open peer.
type Dialer struct {
	cfg   Config
	inner func() (net.Conn, error)

	dials       atomic.Uint64
	conns       atomic.Uint64
	resets      atomic.Uint64
	partitioned atomic.Bool

	mu     sync.Mutex
	active map[*Conn]struct{}
}

// NewDialer wraps inner with the configured fault mix.
func NewDialer(inner func() (net.Conn, error), cfg Config) *Dialer {
	return &Dialer{cfg: cfg, inner: inner, active: make(map[*Conn]struct{})}
}

// Dial makes one faulted connection (or refuses to, per the schedule
// and the partition switch).
func (d *Dialer) Dial() (net.Conn, error) {
	n := d.dials.Add(1)
	if d.partitioned.Load() {
		return nil, ErrPartitioned
	}
	if d.cfg.DialFailEvery > 0 && n%uint64(d.cfg.DialFailEvery) == 0 {
		return nil, errDialFault
	}
	inner, err := d.inner()
	if err != nil {
		return nil, err
	}
	idx := d.conns.Add(1)
	c := newConn(inner, d.cfg, idx, func() { d.resets.Add(1) })
	d.mu.Lock()
	if d.partitioned.Load() {
		c.Blackhole()
	}
	d.active[c] = struct{}{}
	d.mu.Unlock()
	c.onClose = func() {
		d.mu.Lock()
		delete(d.active, c)
		d.mu.Unlock()
	}
	return c, nil
}

// Partition turns the network dark: every active conn becomes a
// silent blackhole (half-open: writes vanish, reads hear nothing) and
// new dials fail until Heal.
func (d *Dialer) Partition() {
	d.mu.Lock()
	d.partitioned.Store(true)
	for c := range d.active {
		c.Blackhole()
	}
	d.mu.Unlock()
}

// Heal re-admits new dials. Conns blackholed by Partition stay dark —
// a healed network does not resurrect half-open connections; the code
// under test must detect and replace them.
func (d *Dialer) Heal() { d.partitioned.Store(false) }

// Resets reports connections torn down by the byte budget.
func (d *Dialer) Resets() uint64 { return d.resets.Load() }

// Conn is one fault-injecting connection. It is safe for the usual
// net.Conn concurrency (one reader, one writer, any goroutine closing
// or setting deadlines).
type Conn struct {
	inner   net.Conn
	cfg     Config
	onReset func()
	onClose func()

	mu         sync.Mutex
	rng        uint64
	budget     int64 // bytes until the cut; -1 = unlimited
	blackholed bool

	closeOnce sync.Once
	resetOnce sync.Once
}

func newConn(inner net.Conn, cfg Config, idx uint64, onReset func()) *Conn {
	c := &Conn{inner: inner, cfg: cfg, onReset: onReset, budget: -1}
	c.rng = splitmix64(cfg.Seed ^ idx*0x9e3779b97f4a7c15)
	if cfg.CutAfterBytes > 0 {
		// Jitter the budget to [0.5, 1.5)× so the cut offset lands at
		// an arbitrary point inside whatever frame is crossing then.
		c.budget = int64(cfg.CutAfterBytes)/2 + int64(c.next()%uint64(cfg.CutAfterBytes))
	}
	return c
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next advances the per-conn deterministic stream; callers hold no
// locks or c.mu — it locks internally.
func (c *Conn) next() uint64 {
	c.mu.Lock()
	c.rng = splitmix64(c.rng)
	v := c.rng
	c.mu.Unlock()
	return v
}

// Blackhole turns this conn into a half-open peer: writes report
// success and vanish, reads hear only silence (deadlines still fire,
// exactly as against a real dead peer). There is no way back — close
// and redial, like the real thing.
func (c *Conn) Blackhole() {
	c.mu.Lock()
	c.blackholed = true
	c.mu.Unlock()
}

func (c *Conn) isBlackholed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blackholed
}

// delay injects latency and bandwidth-cap sleeps for an op of n bytes.
func (c *Conn) delay(n int) {
	var d time.Duration
	if c.cfg.Latency > 0 {
		d += time.Duration(c.next() % uint64(c.cfg.Latency))
	}
	if c.cfg.BytesPerSec > 0 {
		d += time.Duration(float64(n) / float64(c.cfg.BytesPerSec) * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// consume charges n bytes against the budget, reporting whether the
// cut point was crossed, and how many of the n bytes fit under it.
func (c *Conn) consume(n int) (cut bool, fit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget < 0 {
		return false, n
	}
	if int64(n) <= c.budget {
		c.budget -= int64(n)
		return false, n
	}
	fit = int(c.budget)
	c.budget = 0
	return true, fit
}

// teardown is the mid-stream reset: close the wrapped conn so the
// peer sees the drop, and count it — once per conn, however many ops
// trip over the spent budget afterwards.
func (c *Conn) teardown() {
	c.resetOnce.Do(func() {
		if c.onReset != nil {
			c.onReset()
		}
		_ = c.inner.Close()
	})
}

// Read delivers from the wrapped conn, charging the byte budget. A
// blackholed conn swallows anything the peer still manages to deliver
// and keeps listening to silence; deadline and close errors surface
// unchanged, which is what lets deadline-based liveness detection see
// a half-open peer the honest way.
func (c *Conn) Read(p []byte) (int, error) {
	for {
		n, err := c.inner.Read(p)
		if c.isBlackholed() {
			if err != nil {
				return 0, err
			}
			continue
		}
		if n > 0 {
			c.delay(n)
			if cut, _ := c.consume(n); cut {
				// The bytes already read are delivered; the conn dies
				// under the caller's feet for the next op.
				c.teardown()
			}
		}
		return n, err
	}
}

// Write forwards to the wrapped conn. Crossing the byte budget tears
// the frame: the prefix up to the (jittered) cut offset is delivered,
// then the conn resets. A blackholed conn reports success and
// delivers nothing.
func (c *Conn) Write(p []byte) (int, error) {
	if c.isBlackholed() {
		return len(p), nil
	}
	c.delay(len(p))
	cut, fit := c.consume(len(p))
	if !cut {
		return c.inner.Write(p)
	}
	n, _ := c.inner.Write(p[:fit])
	c.teardown()
	return n, ErrReset
}

// Close closes the wrapped conn.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		err = c.inner.Close()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return err
}

// LocalAddr returns the wrapped conn's local address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr returns the wrapped conn's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline forwards to the wrapped conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the wrapped conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the wrapped conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
