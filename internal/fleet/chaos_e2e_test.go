package fleet

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/chaos"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/testutil"
)

// chaosSeed resolves the fault-schedule seed: CHAOS_SEED from the
// environment (the Makefile exports one per run) or a fixed default,
// always logged so a failure reproduces with
// CHAOS_SEED=<n> go test -run TestChaos ./internal/fleet/.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	seed := uint64(20260807)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q is not a uint64: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (reproduce with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// chaosGateway is one session-managed gateway in a chaos scenario.
type chaosGateway struct {
	sess   *Session
	dialer *chaos.Dialer

	mu       sync.Mutex
	nextSeed int
}

// observe pumps n unique fingerprints through the session and returns
// their seeds; uniqueness is fleet-wide (gateway index × 1e6 + counter)
// so the ingest ledger can count per-fingerprint deliveries.
func (g *chaosGateway) observe(t *testing.T, gw, n int) []float64 {
	t.Helper()
	seeds := make([]float64, 0, n)
	g.mu.Lock()
	base := g.nextSeed
	g.nextSeed += n
	g.mu.Unlock()
	for j := 0; j < n; j++ {
		seed := float64(gw*1_000_000 + base + j)
		seeds = append(seeds, seed)
		if err := g.sess.Observe(testFingerprint(3+j%3, seed)); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	return seeds
}

type scenarioResult struct {
	current    string            // fleet model after both rollouts
	gwModels   map[string]string // final bank each gateway serves
	reconnects uint64
	dropped    uint64
	resets     uint64
}

// runCanaryScenario drives the full promote-then-rollback control-plane
// flow over three session-managed gateways, with or without injected
// network faults, and reports what everything converged to.
func runCanaryScenario(t *testing.T, seed uint64, chaotic bool, seen *seedCounter) scenarioResult {
	t.Helper()
	f := startFleetWith(t, t.TempDir(), seen.ingest)
	shaA, err := f.ctrl.SetCurrent([]byte("bank-A"))
	if err != nil {
		t.Fatalf("SetCurrent: %v", err)
	}

	ids := []string{"g1", "g2", "g3"}
	gws := make([]*chaosGateway, len(ids))
	for i, id := range ids {
		var cfg chaos.Config
		if chaotic {
			cfg = chaos.Config{
				Seed:          seed + uint64(i),
				Latency:       time.Millisecond,
				CutAfterBytes: 2_000, // jittered ≥1k: every conn lands at least one full batch (~280 B of packed rows) before dying
			}
		}
		d := chaosDialerTo(f.addr, cfg)
		sess, err := NewSession(SessionConfig{
			Client: ClientConfig{
				GatewayID:    id,
				BatchSize:    8,
				Heartbeat:    20 * time.Millisecond,
				ReadTimeout:  150 * time.Millisecond,
				WriteTimeout: 2 * time.Second,
				ApplyModel:   func(string, []byte) error { return nil },
				Dialer:       d.Dial,
			},
			Retry: iotssp.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond, Seed: seed + uint64(i)},
		})
		if err != nil {
			t.Fatalf("NewSession(%s): %v", id, err)
		}
		gws[i] = &chaosGateway{sess: sess, dialer: d}
	}
	defer func() {
		for _, g := range gws {
			g.sess.Close()
		}
	}()

	waitFor(t, "3 registrations", func() bool { return len(f.reg.IDs()) == 3 })
	waitFor(t, "baseline bank on every gateway", func() bool {
		for _, g := range gws {
			if g.sess.ModelSHA() != shaA {
				return false
			}
		}
		return true
	})

	totalReconnects := func() uint64 {
		var n uint64
		for _, g := range gws {
			n += g.sess.Stats().Reconnects
		}
		return n
	}
	expected := 0
	// pumpRound streams one round of unique fingerprints from every
	// gateway and waits for full ingest coverage — which only happens
	// once every session has (re)connected and drained its spool.
	pumpRound := func(what string) {
		for i, g := range gws {
			g.observe(t, i, 24) // 3 sealed batches per gateway
			expected += 24
		}
		waitFor(t, what, func() bool { return seen.distinct() == expected })
	}

	// Phase 1: streamed ingest. The chaotic arm keeps pumping until the
	// fault schedule has torn the link fleet-wide a handful of times;
	// every torn batch must be replayed to reach coverage.
	pumpRound("round 1 ingest coverage")
	pumpRound("round 2 ingest coverage")
	if chaotic {
		for r := 0; totalReconnects() < 6; r++ {
			if r >= 40 {
				t.Fatalf("after %d extra rounds only %d reconnects; fault schedule too tame", r, totalReconnects())
			}
			pumpRound(fmt.Sprintf("extra round %d ingest coverage", r))
		}
	}

	// Phase 2: canary promote. g1 (first sorted ID) takes the
	// candidate; its clean assessments promote it fleet-wide. The link
	// keeps flapping under the continued pumping.
	shaB, err := f.ctrl.StartRollout([]byte("bank-B"))
	if err != nil {
		t.Fatalf("StartRollout(B): %v", err)
	}
	waitFor(t, "canary g1 applies the candidate", func() bool { return gws[0].sess.ModelSHA() == shaB })
	pumpRound("mid-rollout ingest coverage")
	for i := 0; i < 8; i++ {
		gws[0].sess.RecordAssessment(false)
	}
	if err := gws[0].sess.Flush(); err != nil {
		t.Fatalf("Flush counters: %v", err)
	}
	waitFor(t, "promotion", func() bool {
		s := f.ctrl.Status()
		return s.Phase == PhaseIdle && s.Current == shaB
	})
	waitFor(t, "fleet-wide push", func() bool {
		return gws[1].sess.ModelSHA() == shaB && gws[2].sess.ModelSHA() == shaB
	})

	// Phase 3: regressing canary rolls back. The chaotic arm also rips
	// the canary's network out entirely mid-rollout (partition, then
	// heal): the candidate push has to survive a reconnect window.
	shaC, err := f.ctrl.StartRollout([]byte("bank-C"))
	if err != nil {
		t.Fatalf("StartRollout(C): %v", err)
	}
	if chaotic {
		gws[0].dialer.Partition()
		waitFor(t, "partitioned canary degraded", func() bool { return gws[0].sess.State() == SessionDegraded })
		gws[0].dialer.Heal()
		waitFor(t, "partitioned canary reconnected", func() bool { return gws[0].sess.State() == SessionConnected })
	}
	waitFor(t, "canary g1 applies the regressing candidate", func() bool { return gws[0].sess.ModelSHA() == shaC })
	for i := 0; i < 8; i++ {
		gws[0].sess.RecordAssessment(true)
	}
	if err := gws[0].sess.Flush(); err != nil {
		t.Fatalf("Flush counters: %v", err)
	}
	waitFor(t, "rollback", func() bool {
		s := f.ctrl.Status()
		return s.Phase == PhaseIdle && s.Current == shaB
	})
	waitFor(t, "canary restored to the promoted bank", func() bool { return gws[0].sess.ModelSHA() == shaB })

	// The chaotic arm must have actually been chaotic: 10+ link drops
	// across the fleet over the rollout's lifetime.
	if chaotic {
		for r := 0; totalReconnects() < 10; r++ {
			if r >= 40 {
				t.Fatalf("after %d tail rounds only %d reconnects; fault schedule too tame", r, totalReconnects())
			}
			pumpRound(fmt.Sprintf("tail round %d ingest coverage", r))
		}
	}
	waitFor(t, "all spools drained", func() bool {
		for _, g := range gws {
			if g.sess.Stats().SpoolDepth != 0 {
				return false
			}
		}
		return true
	})

	res := scenarioResult{
		current:  f.ctrl.Status().Current,
		gwModels: make(map[string]string, len(ids)),
	}
	for i, id := range ids {
		res.gwModels[id] = gws[i].sess.ModelSHA()
		st := gws[i].sess.Stats()
		res.reconnects += st.Reconnects
		res.dropped += st.SpoolDropped
		res.resets += gws[i].dialer.Resets()
	}
	return res
}

// TestChaosCanaryConvergence is the headline resilience check: a
// 3-gateway canary rollout (promote bank-B, then roll back bank-C)
// with the fleet link being torn, delayed, and partitioned throughout —
// 10+ drops fleet-wide — must converge to the exact same decisions and
// final model SHAs as the fault-free run, with nothing spooled lost
// below the bound and no goroutine left behind.
func TestChaosCanaryConvergence(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	seed := chaosSeed(t)

	cleanSeen := newSeedCounter()
	clean := runCanaryScenario(t, seed, false, cleanSeen)
	chaoticSeen := newSeedCounter()
	chaotic := runCanaryScenario(t, seed, true, chaoticSeen)

	if chaotic.reconnects < 10 {
		t.Fatalf("chaotic run reconnected %d times, want ≥ 10 link drops", chaotic.reconnects)
	}
	if chaotic.dropped != 0 {
		t.Fatalf("chaotic run dropped %d spooled fingerprints below the spool bound, want 0", chaotic.dropped)
	}
	if clean.reconnects != 0 || clean.resets != 0 {
		t.Fatalf("clean run saw %d reconnects / %d resets, want a genuinely fault-free baseline", clean.reconnects, clean.resets)
	}
	if chaotic.current != clean.current {
		t.Fatalf("final fleet model diverged: chaotic %.12s, clean %.12s", chaotic.current, clean.current)
	}
	for id, sha := range clean.gwModels {
		if got := chaotic.gwModels[id]; got != sha {
			t.Fatalf("gateway %s converged to %.12s under chaos, %.12s clean", id, got, sha)
		}
	}
	// Delivery under chaos is at-least-once (an ack lost to a cut means
	// a replay); what it must never be is zero-times.
	for seed, n := range chaoticSeen.counts() {
		if n < 1 {
			t.Fatalf("fingerprint seed %v never ingested", seed)
		}
	}
}

// TestChaosHalfOpenPeerDetection pins the deadline math end to end: a
// peer that goes silent without closing (the classic half-open TCP
// state) is detected by the heartbeat-derived read deadline within
// three lease periods, and the session's reconnect delivers everything
// observed during the outage exactly once.
func TestChaosHalfOpenPeerDetection(t *testing.T) {
	t.Cleanup(testutil.AssertNoGoroutineLeaks(t))
	seed := chaosSeed(t)
	const lease = 300 * time.Millisecond

	seen := newSeedCounter()
	reg := NewRegistry(lease, nil)
	srv, err := NewServer(ServerConfig{
		Registry:      reg,
		Ingest:        seen.ingest,
		SweepInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	d := chaosDialerTo(ln.Addr().String(), chaos.Config{Seed: seed})
	sess, err := NewSession(SessionConfig{
		Client: ClientConfig{
			GatewayID:   "g1",
			BatchSize:   2,
			Heartbeat:   50 * time.Millisecond,  // well under lease/3 territory
			ReadTimeout: 250 * time.Millisecond, // 5 missed echoes, < 1 lease
			Dialer:      d.Dial,
		},
		Retry: iotssp.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond, Seed: seed},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	waitFor(t, "connection", func() bool { return sess.State() == SessionConnected })

	// The peer goes half-open: writes still "succeed", nothing comes
	// back. Only the read deadline can notice.
	start := time.Now()
	d.Partition()
	waitFor(t, "half-open peer detected", func() bool { return sess.State() == SessionDegraded })
	if elapsed := time.Since(start); elapsed > 3*lease {
		t.Fatalf("half-open peer detected after %v, want within 3 lease periods (%v)", elapsed, 3*lease)
	}

	// Observations made against the dead link are the replay payload.
	for i := 0; i < 6; i++ {
		if err := sess.Observe(testFingerprint(3, float64(500+i))); err != nil {
			t.Fatalf("Observe during outage: %v", err)
		}
	}
	d.Heal()
	waitFor(t, "reconnection", func() bool { return sess.State() == SessionConnected })
	waitFor(t, "outage observations ingested", func() bool { return seen.distinct() == 6 })
	waitFor(t, "acks retire the spool", func() bool { return sess.Stats().SpoolDepth == 0 })
	for fpSeed, n := range seen.counts() {
		if n != 1 {
			t.Fatalf("fingerprint seed %v ingested %d times, want exactly once (blackholed writes were never delivered)", fpSeed, n)
		}
	}
	if got := sess.Stats().SpoolDropped; got != 0 {
		t.Fatalf("SpoolDropped = %d, want 0", got)
	}
}
