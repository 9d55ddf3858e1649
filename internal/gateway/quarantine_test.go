package gateway

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
)

// flakyAssessor fails its first `failures` calls, then delegates to the
// wrapped assessor — the fault-injection harness for the
// quarantine → retry → assessed lifecycle.
type flakyAssessor struct {
	mu       sync.Mutex
	failures int
	calls    int
	inner    iotssp.Assessor
}

func (f *flakyAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	f.mu.Lock()
	f.calls++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	inner := f.inner
	f.mu.Unlock()
	if fail {
		return iotssp.Assessment{}, errors.New("iotssp unavailable")
	}
	if inner == nil {
		return iotssp.Assessment{}, errors.New("no inner assessor")
	}
	return inner.Assess(fp)
}

func (f *flakyAssessor) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func newGatewayWithAssessor(a iotssp.Assessor, cfg Config) *Gateway {
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	return New(a, sw, cfg)
}

// fakeClock implements iotssp.Clock virtually for the end-to-end
// breaker test.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	return nil
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestQuarantineRecoveryLifecycle(t *testing.T) {
	var quarantined []DeviceInfo
	var assessed []DeviceInfo
	flaky := &flakyAssessor{failures: 2, inner: trainService(t)}
	g := newGatewayWithAssessor(flaky, Config{
		IdleGap:       5 * time.Second,
		OnQuarantined: func(d DeviceInfo, err error) { quarantined = append(quarantined, d) },
		OnAssessed:    func(d DeviceInfo) { assessed = append(assessed, d) },
	})

	p, err := devices.ProfileByID("EdnetCam")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 60)[0]
	playCapture(t, g, cap)
	end := cap.Times[len(cap.Times)-1]
	if err := g.FinishSetup(cap.MAC, end); err != nil {
		t.Fatalf("FinishSetup: %v", err)
	}

	// Failure 1: quarantined fail-closed, fingerprint parked.
	info, _ := g.Device(cap.MAC)
	if info.State != StateQuarantined || info.Level != sdn.Strict {
		t.Fatalf("after failed assess: %+v", info)
	}
	if info.QuarantinedAt != end || info.AssessAttempts != 1 {
		t.Errorf("quarantine bookkeeping: %+v", info)
	}
	if len(quarantined) != 1 {
		t.Fatalf("OnQuarantined calls = %d", len(quarantined))
	}
	if g.QuarantineLen() != 1 {
		t.Fatalf("queue len = %d", g.QuarantineLen())
	}
	rule, ok := g.Switch().Controller().Rules().Get(cap.MAC)
	if !ok || rule.Level != sdn.Strict || rule.DeviceType != sdn.QuarantineType {
		t.Fatalf("rule = %+v, ok=%v", rule, ok)
	}

	// Failure 2: the retry drain hits the still-down service; the
	// device stays quarantined and the attempt is counted.
	n, err := g.RetryQuarantined(end.Add(5 * time.Second))
	if n != 0 || err == nil {
		t.Fatalf("RetryQuarantined = (%d, %v), want (0, error)", n, err)
	}
	info, _ = g.Device(cap.MAC)
	if info.State != StateQuarantined || info.AssessAttempts != 2 {
		t.Fatalf("after failed retry: %+v", info)
	}

	// Service recovered: the next drain promotes the device to its
	// true type and level, replacing the quarantine rule.
	promoteAt := end.Add(10 * time.Second)
	n, err = g.RetryQuarantined(promoteAt)
	if n != 1 || err != nil {
		t.Fatalf("RetryQuarantined = (%d, %v), want (1, nil)", n, err)
	}
	info, _ = g.Device(cap.MAC)
	if info.State != StateAssessed || info.Type != "EdnetCam" || info.Level != sdn.Restricted {
		t.Fatalf("after recovery: %+v", info)
	}
	if !info.QuarantinedAt.IsZero() || info.AssessAttempts != 0 || info.AssessedAt != promoteAt {
		t.Errorf("promotion bookkeeping: %+v", info)
	}
	if g.QuarantineLen() != 0 {
		t.Errorf("queue len = %d after promotion", g.QuarantineLen())
	}
	rule, _ = g.Switch().Controller().Rules().Get(cap.MAC)
	if rule.Level != sdn.Restricted || len(rule.PermittedIPs) != 1 {
		t.Errorf("promoted rule = %+v", rule)
	}
	if len(assessed) != 1 || assessed[0].Type != "EdnetCam" {
		t.Errorf("OnAssessed calls: %+v", assessed)
	}
}

// TestHandlePacketSurvivesMissingCapture pins the crash the quarantine
// state machine folds away: a device in StateMonitoring whose capture
// is gone (the window between the claim of its capture and its verdict,
// or — before this fix — any failed assessment). The next packet used to
// nil-deref in HandlePacket.
func TestHandlePacketSurvivesMissingCapture(t *testing.T) {
	g := newGateway(t, Config{IdleGap: time.Hour})
	mac := packet.MAC{0x02, 4, 4, 4, 4, 4}
	pk := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"),
		netip.MustParseAddr("192.168.1.1"))
	base := time.Unix(100, 0)
	if _, err := g.HandlePacket(base, pk); err != nil {
		t.Fatal(err)
	}
	// Simulate that window: capture claimed, state still monitoring.
	claimCapture(g, mac)

	act, err := g.HandlePacket(base.Add(time.Second), pk)
	if err != nil {
		t.Fatalf("HandlePacket with missing capture: %v", err)
	}
	if act != sdn.ActionForward {
		t.Errorf("monitoring-phase packet not forwarded: %v", act)
	}
}

// TestFinishAllSetupsQuarantinesFailures: the sweep assesses device by
// device in MAC order, so a service that fails some of the calls
// quarantines exactly those devices, at strict, and assesses the rest as
// their types; the count is every capture finished.
func TestFinishAllSetupsQuarantinesFailures(t *testing.T) {
	g := newGatewayWithAssessor(&everyNthFails{inner: trainService(t), n: 2}, Config{IdleGap: time.Hour})
	types := make(map[packet.MAC]string)
	var macs []packet.MAC
	var last time.Time
	for i, typ := range []string{"HueBridge", "Aria", "EdnetCam", "iKettle2"} {
		cap := devices.GenerateCaptures(mustProfile(t, typ), 1, int64(60+i))[0]
		playCapture(t, g, cap)
		types[cap.MAC] = typ
		macs = append(macs, cap.MAC)
		if end := cap.Times[len(cap.Times)-1]; end.After(last) {
			last = end
		}
	}
	slices.SortFunc(macs, packet.MAC.Compare)
	if n := g.FinishAllSetups(last.Add(time.Minute)); n != len(macs) {
		t.Errorf("finished %d captures, want %d", n, len(macs))
	}
	for i, mac := range macs {
		info, _ := g.Device(mac)
		rule, ok := g.Switch().Controller().Rules().Get(mac)
		if i%2 == 1 { // every second call fails
			if info.State != StateQuarantined || !ok || rule.Level != sdn.Strict {
				t.Errorf("device %v = %+v, rule %+v (ok=%v); want quarantined at strict", mac, info, rule, ok)
			}
		} else if info.State != StateAssessed || string(info.Type) != types[mac] || !ok {
			t.Errorf("device %v = %+v, rule ok=%v; want assessed as %s", mac, info, ok, types[mac])
		}
	}
	if n := g.QuarantineLen(); n != len(macs)/2 {
		t.Errorf("queue len = %d, want %d", n, len(macs)/2)
	}
}

func TestQuarantineQueueBounded(t *testing.T) {
	flaky := &flakyAssessor{failures: 2 * maxQuarantined, inner: trainService(t)}
	g := newGatewayWithAssessor(flaky, Config{IdleGap: time.Hour})
	base := time.Unix(100, 0)
	macs := make([]packet.MAC, maxQuarantined+1)
	for i := range macs {
		macs[i] = packet.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)}
	}
	for _, mac := range macs {
		pk := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"),
			netip.MustParseAddr("192.168.1.1"))
		if _, err := g.HandlePacket(base, pk); err != nil {
			t.Fatal(err)
		}
		if err := g.FinishSetup(mac, base.Add(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.QuarantineLen(); got != maxQuarantined {
		t.Fatalf("queue len = %d, want bound of %d", got, maxQuarantined)
	}
	// Every device is still isolated, the one past the bound included.
	for _, mac := range macs {
		info, _ := g.Device(mac)
		if info.State != StateQuarantined {
			t.Errorf("device %v state = %v", mac, info.State)
		}
	}
	// Recovery promotes only the queued devices; the rest stay strict
	// until the operator intervenes (documented bound behaviour).
	flaky.mu.Lock()
	flaky.failures = 0
	flaky.mu.Unlock()
	n, err := g.RetryQuarantined(base.Add(time.Minute))
	if err != nil || n != maxQuarantined {
		t.Fatalf("RetryQuarantined = (%d, %v)", n, err)
	}
	if g.QuarantineLen() != 0 {
		t.Errorf("queue len = %d", g.QuarantineLen())
	}
}

func TestRemoveDeviceClearsQuarantine(t *testing.T) {
	flaky := &flakyAssessor{failures: 1000}
	g := newGatewayWithAssessor(flaky, Config{IdleGap: time.Hour})
	mac := packet.MAC{0x02, 5, 5, 5, 5, 5}
	pk := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"),
		netip.MustParseAddr("192.168.1.1"))
	base := time.Unix(100, 0)
	if _, err := g.HandlePacket(base, pk); err != nil {
		t.Fatal(err)
	}
	if err := g.FinishSetup(mac, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if g.QuarantineLen() != 1 {
		t.Fatal("device not queued")
	}
	g.RemoveDevice(mac)
	if g.QuarantineLen() != 0 {
		t.Error("quarantine entry leaked after RemoveDevice")
	}
	if n, err := g.RetryQuarantined(base.Add(time.Minute)); n != 0 || err != nil {
		t.Errorf("RetryQuarantined = (%d, %v) on empty queue", n, err)
	}
}

func TestFinalizeIdleCaptures(t *testing.T) {
	g := newGateway(t, Config{IdleGap: 5 * time.Second})
	p, err := devices.ProfileByID("HueBridge")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 61)[0]
	playCapture(t, g, cap)
	end := cap.Times[len(cap.Times)-1]

	// Not idle long enough: nothing happens.
	if n := g.FinalizeIdleCaptures(end.Add(time.Second)); n != 0 {
		t.Fatalf("finalized %d before idle gap", n)
	}
	info, _ := g.Device(cap.MAC)
	if info.State != StateMonitoring {
		t.Fatalf("state = %v", info.State)
	}
	// Past the idle gap the silent device is finalized and assessed —
	// no follow-up packet required.
	if n := g.FinalizeIdleCaptures(end.Add(10 * time.Second)); n != 1 {
		t.Fatalf("finalized %d, want 1", n)
	}
	info, _ = g.Device(cap.MAC)
	if info.State != StateAssessed || info.Type != "HueBridge" {
		t.Errorf("after finalize: %+v", info)
	}
	// The capture is released: a second sweep finds nothing.
	if n := g.FinalizeIdleCaptures(end.Add(20 * time.Second)); n != 0 {
		t.Errorf("second sweep finalized %d", n)
	}
}

func TestExpiryWorkerFinalizesIdleCaptures(t *testing.T) {
	g := newGateway(t, Config{IdleGap: 5 * time.Second})
	p, err := devices.ProfileByID("HueBridge")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 62)[0]
	// Timestamp the packets in the past so the capture is already idle
	// when the worker's wall-clock sweep runs.
	base := time.Now().Add(-time.Minute)
	for i, pk := range cap.Packets {
		if _, err := g.HandlePacket(base.Add(cap.Times[i].Sub(cap.Times[0])), pk); err != nil {
			t.Fatal(err)
		}
	}
	w := NewExpiryWorker(g, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if info, _ := g.Device(cap.MAC); info.State == StateAssessed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.Shutdown()
	if w.Finalized() < 1 {
		t.Errorf("worker finalized %d captures, want >= 1", w.Finalized())
	}
	info, _ := g.Device(cap.MAC)
	if info.State != StateAssessed {
		t.Errorf("silent device never assessed: %+v", info)
	}
}

// TestRemoteQuarantineEndToEnd is the acceptance scenario: a gateway
// behind the HTTP client with timeout + retry + breaker, against a real
// IoTSSP HTTP server that is down, then recovers. With the service
// failing, HandlePacket never panics or errors and the device is
// enforced at strict within one packet; after recovery the retry drain
// promotes it automatically, backoff timing asserted on the injected
// clock. The promoted assessment also proves severity/FixedInUpdate
// survive the wire: the critical-vuln notification fires.
func TestRemoteQuarantineEndToEnd(t *testing.T) {
	svc := trainService(t)
	real := iotssp.Handler(svc)
	var failing atomic.Bool
	failing.Store(true)
	var wireCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wireCalls.Add(1)
		if failing.Load() {
			http.Error(w, "service down", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	fc := &fakeClock{now: time.Unix(5000, 0)}
	policy := iotssp.RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, Seed: 9}
	client := &iotssp.Client{
		BaseURL: srv.URL,
		Timeout: 5 * time.Second,
		Retry:   policy,
		Breaker: iotssp.NewCircuitBreaker(2, 30*time.Second, fc),
		Clock:   fc,
	}
	var notes []Notification
	g := newGatewayWithAssessor(client, Config{
		IdleGap:  5 * time.Second,
		OnNotify: func(n Notification) { notes = append(notes, n) },
	})

	p, err := devices.ProfileByID("EdnetCam")
	if err != nil {
		t.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 63)[0]
	playCapture(t, g, cap)
	end := cap.Times[len(cap.Times)-1]
	if err := g.FinishSetup(cap.MAC, end); err != nil {
		t.Fatalf("FinishSetup: %v", err)
	}

	// Down service: quarantined within the failing call, strict
	// enforced on the very next packet.
	info, _ := g.Device(cap.MAC)
	if info.State != StateQuarantined {
		t.Fatalf("state = %v", info.State)
	}
	blocked := packet.NewTCPSyn(cap.MAC, packet.MAC{2, 2, 2, 2, 2, 2},
		netip.MustParseAddr("192.168.1.40"), netip.MustParseAddr("93.184.216.34"), 40000, 443)
	act, err := g.HandlePacket(end.Add(time.Second), blocked)
	if err != nil || act != sdn.ActionDrop {
		t.Fatalf("quarantined device: act=%v err=%v, want drop/nil", act, err)
	}
	// The client retried exactly per policy, sleeping the deterministic
	// backoff on the injected clock — no real sleeps.
	fc.mu.Lock()
	slept := append([]time.Duration(nil), fc.slept...)
	fc.mu.Unlock()
	if len(slept) != 1 || slept[0] != policy.Backoff(1) {
		t.Errorf("slept = %v, want [%v]", slept, policy.Backoff(1))
	}
	if wireCalls.Load() != 2 {
		t.Errorf("wire calls = %d, want 2 (MaxAttempts)", wireCalls.Load())
	}

	// Both attempts tripped the 2-failure breaker: the next drain fails
	// fast without touching the wire.
	if _, err := g.RetryQuarantined(end.Add(2 * time.Second)); !errors.Is(err, iotssp.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if wireCalls.Load() != 2 {
		t.Errorf("open breaker let requests through: %d", wireCalls.Load())
	}

	// Cooldown elapses (virtually) and the service recovers: the
	// half-open probe doubles as the promoting re-assessment.
	failing.Store(false)
	fc.Advance(31 * time.Second)
	n, err := g.RetryQuarantined(end.Add(40 * time.Second))
	if n != 1 || err != nil {
		t.Fatalf("RetryQuarantined = (%d, %v), want (1, nil)", n, err)
	}
	info, _ = g.Device(cap.MAC)
	if info.State != StateAssessed || info.Type != "EdnetCam" || info.Level != sdn.Restricted {
		t.Fatalf("after recovery: %+v", info)
	}
	// Severity and FixedInUpdate round-tripped the wire, so the
	// critical-vulnerability alert fires (the Sect. III-C3 regression).
	if len(notes) != 1 || notes[0].Type != "EdnetCam" {
		t.Errorf("notifications = %+v, want 1 for EdnetCam", notes)
	}
}

// pairingAssessor releases its callers two at a time: with two drains
// walking the same MAC order, both come back holding an assessment for
// the same quarantined device at the same moment — the window in which
// RetryQuarantined used to promote a device twice.
type pairingAssessor struct {
	inner iotssp.Assessor
	meet  chan struct{}
}

func (p *pairingAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	a, err := p.inner.Assess(fp)
	select {
	case p.meet <- struct{}{}:
	case <-p.meet:
	case <-time.After(time.Second): // never pairs up again: go through alone
	}
	return a, err
}

// TestRetryQuarantinedConcurrentDrainsPromoteOnce races two drains over
// the same quarantine queue: every device is promoted by exactly one of
// them (OnAssessed once per MAC) and the rule table ends up identical to
// a single serial drain's.
func TestRetryQuarantinedConcurrentDrainsPromoteOnce(t *testing.T) {
	svc := trainService(t)
	var fps []fingerprint.Fingerprint
	for _, v := range devices.GenerateDataset(2, 77) {
		fps = append(fps, v...)
	}
	now := time.Unix(1_700_000_000, 0)
	run := func(drains int) (digest uint64, assessed map[packet.MAC]int) {
		assessed = make(map[packet.MAC]int)
		var mu sync.Mutex
		var a iotssp.Assessor = svc
		if drains > 1 {
			a = &pairingAssessor{inner: svc, meet: make(chan struct{})}
		}
		g := newGatewayWithAssessor(a, Config{OnAssessed: func(d DeviceInfo) {
			mu.Lock()
			assessed[d.MAC]++
			mu.Unlock()
		}})
		for i := range fps {
			mac := packet.MAC{0x02, 0xaa, 0, 0, byte(i >> 8), byte(i)}
			// A verdict lands only on a device the gateway holds.
			if _, err := g.HandlePacket(now, arpPacket(mac)); err != nil {
				t.Fatal(err)
			}
			g.quarantineDevice(claimCapture(g, mac), &fps[i], now, errors.New("iotssp unavailable"))
		}
		var wg sync.WaitGroup
		var promoted atomic.Int64
		for d := 0; d < drains; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, err := g.RetryQuarantined(now.Add(time.Minute))
				if err != nil {
					t.Errorf("RetryQuarantined: %v", err)
				}
				promoted.Add(int64(n))
			}()
		}
		wg.Wait()
		if int(promoted.Load()) != len(fps) || g.QuarantineLen() != 0 {
			t.Errorf("%d drain(s): promoted %d of %d, %d still queued", drains, promoted.Load(), len(fps), g.QuarantineLen())
		}
		return g.Switch().Controller().Rules().Digest(), assessed
	}
	serialDigest, _ := run(1)
	digest, assessed := run(2)
	if digest != serialDigest {
		t.Errorf("rule digest after racing drains %#x, serial %#x", digest, serialDigest)
	}
	if len(assessed) != len(fps) {
		t.Errorf("OnAssessed fired for %d devices, want %d", len(assessed), len(fps))
	}
	for mac, n := range assessed {
		if n != 1 {
			t.Errorf("device %v promoted %d times, want exactly once", mac, n)
		}
	}
}

// TestRemoteOldServiceQuarantinesStrict: version skew fails closed. A
// service from before the packed request answers the new body with its
// "bad json" 400; the gateway makes the one attempt, keeps its breaker
// closed (the service is alive) and holds that device at strict.
func TestRemoteOldServiceQuarantinesStrict(t *testing.T) {
	var wireCalls atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wireCalls.Add(1)
		http.Error(w, "bad json: invalid character '\\x00' looking for beginning of value", http.StatusBadRequest)
	}))
	defer old.Close()
	fc := &fakeClock{now: time.Unix(5000, 0)}
	breaker := iotssp.NewCircuitBreaker(1, 30*time.Second, fc)
	client := &iotssp.Client{
		BaseURL: old.URL,
		Retry:   iotssp.RetryPolicy{MaxAttempts: 3},
		Breaker: breaker,
		Clock:   fc,
	}
	g := newGatewayWithAssessor(client, Config{IdleGap: time.Hour})
	mac := packet.MAC{0x02, 6, 6, 6, 6, 6}
	base := time.Unix(100, 0)
	if _, err := g.HandlePacket(base, arpPacket(mac)); err != nil {
		t.Fatal(err)
	}
	if err := g.FinishSetup(mac, base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if info, _ := g.Device(mac); info.State != StateQuarantined || info.Level != sdn.Strict {
		t.Errorf("device = %+v, want quarantined at strict", info)
	}
	if rule, ok := g.Switch().Controller().Rules().Get(mac); !ok || rule.Level != sdn.Strict || rule.DeviceType != sdn.QuarantineType {
		t.Errorf("rule = %+v, ok=%v, want the strict quarantine rule", rule, ok)
	}
	if got := wireCalls.Load(); got != 1 {
		t.Errorf("wire calls = %d, want 1 (a 4xx is not retried)", got)
	}
	if st := breaker.State(); st != iotssp.BreakerClosed {
		t.Errorf("breaker = %v after a well-formed 400, want closed", st)
	}
}

// gatedAssessor parks every call until release is closed, then answers
// from inner, or with fail when that is set.
type gatedAssessor struct {
	inner   iotssp.Assessor
	fail    error
	entered chan struct{}
	release chan struct{}
}

func (a *gatedAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	a.entered <- struct{}{}
	<-a.release
	if a.fail != nil {
		return iotssp.Assessment{}, a.fail
	}
	return a.inner.Assess(fp)
}

// digestFromDevices recomputes the rule table's digest from device
// state alone: one rule per assessed device, the strict quarantine rule
// per quarantined one, none for a device still monitored.
func digestFromDevices(g *Gateway) uint64 {
	want := sdn.NewRuleCache()
	for _, d := range g.Devices() {
		switch d.State {
		case StateAssessed:
			want.Put(&sdn.EnforcementRule{DeviceMAC: d.MAC, Level: d.Level, PermittedIPs: d.PermittedIPs, DeviceType: string(d.Type)})
		case StateQuarantined:
			want.Put(&sdn.EnforcementRule{DeviceMAC: d.MAC, Level: sdn.Strict, DeviceType: sdn.QuarantineType})
		}
	}
	return want.Digest()
}

// TestVerdictForDepartedDeviceIsDropped removes a device while its
// assessment is parked inside the assessor — over the remote call that
// window is the round trip — and lets the verdict come back, the success
// and the failure in turn. The device stays gone: no state, no rule, no
// parked fingerprint, no journal record after the removal's, no callback.
// It used to come back as an assessed (or quarantined) device.
func TestVerdictForDepartedDeviceIsDropped(t *testing.T) {
	svc := trainService(t)
	for name, fail := range map[string]error{
		"assessed":    nil,
		"quarantined": errors.New("iotssp unavailable"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStore(t, dir)
			gate := &gatedAssessor{inner: svc, fail: fail, entered: make(chan struct{}), release: make(chan struct{})}
			var (
				mu    sync.Mutex
				fired = make(map[packet.MAC]int) // callbacks, by device
			)
			callback := func(d DeviceInfo) {
				mu.Lock()
				fired[d.MAC]++
				mu.Unlock()
			}
			g := newGatewayWithAssessor(gate, Config{
				IdleGap: time.Hour,
				Store:   st,
				OnAssessed: func(d DeviceInfo) {
					callback(d)
					if d.Type == core.Unknown {
						callback(d)
					}
				},
				OnQuarantined: func(d DeviceInfo, _ error) { callback(d) },
			})
			// A bystander joins first, so that "rule table = device
			// state" is not the equality of two empty tables.
			stays, leaves := testMAC(1), testMAC(2)
			base := time.Unix(100, 0)
			for _, mac := range []packet.MAC{stays, leaves} {
				if _, err := g.HandlePacket(base, arpPacket(mac)); err != nil {
					t.Fatal(err)
				}
			}
			finished := make(chan error, 2)
			go func() { finished <- g.FinishSetup(stays, base.Add(time.Second)) }()
			<-gate.entered
			go func() { finished <- g.FinishSetup(leaves, base.Add(time.Second)) }()
			<-gate.entered // both parked in Assess

			g.RemoveDevice(leaves)
			close(gate.release)
			for i := 0; i < 2; i++ {
				if err := <-finished; err != nil {
					t.Fatalf("FinishSetup: %v", err)
				}
			}

			if info, ok := g.Device(leaves); ok {
				t.Errorf("removed device is back: %+v", info)
			}
			if rule, ok := g.Switch().Controller().Rules().Get(leaves); ok {
				t.Errorf("removed device has a rule: %+v", rule)
			}
			if info, ok := g.Device(stays); !ok || info.State == StateMonitoring {
				t.Errorf("bystander = %+v, ok=%v, want its verdict applied", info, ok)
			}
			if fired[leaves] != 0 || fired[stays] == 0 {
				t.Errorf("callbacks fired: %d for the removed device, %d for the bystander; want none and some", fired[leaves], fired[stays])
			}
			wantParked := 0
			if fail != nil {
				wantParked = 1
			}
			if got := g.QuarantineLen(); got != wantParked {
				t.Errorf("%d fingerprints parked, want %d", got, wantParked)
			}
			checkRecords(t, g)
			// The journal agrees: what it recovers is the live gateway.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			checkRecoversLive(t, dir, g)
		})
	}
}
