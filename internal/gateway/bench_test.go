package gateway

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/obs"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/store"
	"iotsentinel/internal/testutil"
	"iotsentinel/internal/vulndb"
)

// nopAssessor returns a fixed clean assessment so the benchmarks
// measure the gateway data path, not the classifier bank.
type nopAssessor struct{}

func (nopAssessor) Assess(fingerprint.Fingerprint) (iotssp.Assessment, error) {
	return iotssp.Assessment{Type: "bench", Level: sdn.Trusted}, nil
}

func benchGateway(shards, queue int) *Gateway {
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	return New(nopAssessor{}, sw, Config{
		IdleGap:     time.Hour,
		Shards:      shards,
		AssessQueue: queue,
	})
}

// BenchmarkHandlePacketSharded hammers HandlePacket from every
// benchmark goroutine, each on its own stream of device MACs so
// parallel feeders contend only on shared gateway structures — the
// contention the sharding removes.
func BenchmarkHandlePacketSharded(b *testing.B) {
	g := benchGateway(16, 256)
	defer g.Close()
	base := time.Unix(7000, 0)
	var worker atomic.Uint32
	gwIP := netip.MustParseAddr("192.168.1.1")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := byte(worker.Add(1))
		var i uint32
		for pb.Next() {
			i++
			// A fresh MAC every few packets keeps captures short and
			// spreads load across shards.
			mac := packet.MAC{0x02, 0xBE, w, byte(i >> 10), byte(i >> 2), byte(i)}
			pk := packet.NewUDP(mac, packet.MAC{2, 2, 2, 2, 2, 2},
				netip.MustParseAddr("192.168.1.77"), gwIP, 40000+uint16(i%1000), 53, []byte("q"))
			ts := base.Add(time.Duration(i) * time.Microsecond)
			if _, err := g.HandlePacket(ts, pk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// steadyStateDevice runs one device through its full lifecycle — setup
// capture, assessment, enforcement — and returns the gateway plus a
// packet from the now-assessed device whose flow is installed in the
// switch fast path. Repeating that packet is the gateway's steady
// state: every long-lived device on a home network looks like this
// within seconds of joining.
func steadyStateDevice(tb testing.TB) (*Gateway, *packet.Packet, time.Time) {
	tb.Helper()
	return steadyStateOn(tb, benchGateway(1, 0))
}

func steadyStateOn(tb testing.TB, g *Gateway) (*Gateway, *packet.Packet, time.Time) {
	tb.Helper()
	mac := packet.MAC{0x02, 0xBE, 1, 2, 3, 4}
	gwIP := netip.MustParseAddr("192.168.1.1")
	devIP := netip.MustParseAddr("192.168.1.77")
	pk := packet.NewUDP(mac, packet.MAC{2, 2, 2, 2, 2, 2}, devIP, gwIP, 40000, 53, []byte("q"))
	base := time.Unix(8000, 0)
	g.HandlePacket(base, pk)
	if err := g.FinishSetup(mac, base.Add(time.Second)); err != nil {
		tb.Fatalf("FinishSetup: %v", err)
	}
	info, ok := g.Device(mac)
	if !ok || info.State != StateAssessed {
		tb.Fatalf("device not assessed: %+v", info)
	}
	ts := base.Add(2 * time.Second)
	if _, err := g.HandlePacket(ts, pk); err != nil { // install the flow
		tb.Fatalf("HandlePacket: %v", err)
	}
	return g, pk, ts
}

// TestHandlePacketSteadyStateZeroAlloc pins the property the benchmark
// above measures: once a device is assessed and its flow installed,
// forwarding its packets allocates nothing — match, stats, monitoring
// and enforcement included.
func TestHandlePacketSteadyStateZeroAlloc(t *testing.T) {
	g, pk, ts := steadyStateDevice(t)
	defer g.Close()
	testutil.AssertZeroAllocs(t, "HandlePacket/assessed-device", func() {
		if _, err := g.HandlePacket(ts, pk); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHandlePacketMonitoringZeroAlloc pins a monitored device's
// non-final frames at zero allocations: the word-keyed shard probes and
// SetupCapture.Observe within its inline capacities. A run is 20 setup
// frames of a device of its own, opened beforehand (AllocsPerRun rounds
// down, so one frame a run would hide growth every few frames).
func TestHandlePacketMonitoringZeroAlloc(t *testing.T) {
	const frames = 20
	g := benchGateway(1, 0)
	defer g.Close()
	devIP := netip.MustParseAddr("192.168.1.77")
	base := time.Unix(8000, 0)
	pks := make([][]*packet.Packet, 128) // > the 101 runs AssertZeroAllocs makes
	for d := range pks {
		mac := packet.MAC{0x02, 0xBE, 1, 2, 3, byte(d)}
		for k := 0; k <= frames; k++ {
			dst := netip.AddrFrom4([4]byte{52, 0, 0, byte(k % 5)})
			pks[d] = append(pks[d], packet.NewUDP(mac, packet.MAC{2, 2, 2, 2, 2, 2}, devIP, dst, 40000, 443, nil))
		}
		if _, err := g.HandlePacket(base, pks[d][0]); err != nil { // opens the capture
			t.Fatal(err)
		}
	}
	d := 0
	testutil.AssertZeroAllocs(t, "HandlePacket/monitoring-device", func() {
		for k, pk := range pks[d][1:] {
			if _, err := g.HandlePacket(base.Add(time.Duration(k+1)*time.Millisecond), pk); err != nil {
				t.Fatal(err)
			}
		}
		d++
	})
	if info, _ := g.Device(pks[0][0].SrcMAC); info.State != StateMonitoring || info.SetupPackets != frames+1 {
		t.Fatalf("device 0 = %+v, want monitoring with %d setup packets", info, frames+1)
	}
}

// BenchmarkHandlePacketSteadyState measures the per-packet cost for an
// assessed device with an installed flow — the path every packet after
// a device's first few seconds takes, and the one that must stay
// allocation-free.
func BenchmarkHandlePacketSteadyState(b *testing.B) {
	g, pk, ts := steadyStateDevice(b)
	defer g.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.HandlePacket(ts, pk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandlePacketJoin is one cold join per op, the unit of the
// benchmark's join_storm workload at the gateway stage: RemoveDevice,
// a generated HueBridge setup capture's frames (monitoring), then the
// trigger frame an hour later that finishes the capture, assesses it
// inline against nopAssessor, installs the rule and switches the frame.
func BenchmarkHandlePacketJoin(b *testing.B) {
	g := benchGateway(1, 0)
	defer g.Close()
	p, err := devices.ProfileByID("HueBridge")
	if err != nil {
		b.Fatal(err)
	}
	cap := devices.GenerateCaptures(p, 1, 7)[0]
	trigger := cap.Packets[len(cap.Packets)-1]
	triggerAt := cap.Times[len(cap.Times)-1].Add(time.Hour)
	b.ReportMetric(float64(len(cap.Packets)), "setup-frames")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RemoveDevice(cap.MAC)
		for k, pk := range cap.Packets {
			if _, err := g.HandlePacket(cap.Times[k], pk); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := g.HandlePacket(triggerAt, trigger); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if info, _ := g.Device(cap.MAC); info.State != StateAssessed {
		b.Fatalf("join ended in %v, want assessed", info.State)
	}
}

// pumpForwarder assembles the whole forwarding path as the daemons run
// it — lossless ring, a capture.Pump reader decoding in place, a
// gateway and a switch with every metrics bundle attached — around one
// assessed device whose flow is installed. forward(n) injects n of the
// device's frames and returns once the reader has taken all of them
// through HandlePacket and Switch.Process.
func pumpForwarder(tb testing.TB) (forward func(n int), stop func()) {
	tb.Helper()
	reg := obs.NewRegistry()
	sw := sdn.NewSwitch(sdn.NewController(sdn.NewRuleCache(), netip.Prefix{}), time.Minute)
	sw.SetMetrics(sdn.NewSwitchMetrics(reg))
	g, pk, ts := steadyStateOn(tb, New(nopAssessor{}, sw, Config{
		IdleGap: time.Hour,
		Shards:  1,
		Metrics: NewMetrics(reg),
	}))
	frame, err := pk.Marshal()
	if err != nil {
		tb.Fatalf("marshal: %v", err)
	}
	fan := capture.NewFanout(1, capture.RingConfig{Lossless: true})
	var handled atomic.Int64
	pump := capture.Attach(fan, func(ts time.Time, pk *packet.Packet) {
		if _, err := g.HandlePacket(ts, pk); err != nil {
			tb.Errorf("HandlePacket: %v", err)
		}
		handled.Add(1)
	}, capture.PumpConfig{Metrics: capture.NewMetrics(reg)})
	forward = func(n int) {
		target := handled.Load() + int64(n)
		for i := 0; i < n; i++ {
			if err := fan.Inject(ts, frame); err != nil {
				tb.Fatalf("inject: %v", err)
			}
		}
		fan.Flush()
		for handled.Load() < target {
			runtime.Gosched()
		}
	}
	return forward, func() {
		if err := pump.Close(); err != nil {
			tb.Errorf("pump close: %v", err)
		}
		g.Close()
	}
}

// TestPumpForwardZeroAlloc pins the end-to-end property: a frame of an
// assessed device goes Inject → Recv → DecodeInto → HandlePacket →
// Switch.Process, metrics included, without one heap allocation.
func TestPumpForwardZeroAlloc(t *testing.T) {
	forward, stop := pumpForwarder(t)
	defer stop()
	// 64 frames a run: one allocation per frame would read as 64.
	testutil.AssertZeroAllocs(t, "ring→Process/assessed-device", func() { forward(64) })
}

// BenchmarkPumpForward measures a frame from the ring to Process
// through the production reader, producer and reader running
// concurrently — the figure the benchmark's steady_forward workload
// sees, where BenchmarkHandlePacketSteadyState is one stage of it.
func BenchmarkPumpForward(b *testing.B) {
	forward, stop := pumpForwarder(b)
	defer stop()
	forward(1024)
	b.ReportAllocs()
	b.ResetTimer()
	forward(b.N)
}

// readersRig is pumpForwarder over many devices and several readers: a
// gateway of DefaultShards shards and its switch, every metrics bundle
// attached, devices assessed devices whose Internet-bound flows are
// installed, and a lossless fanout of readers rings feeding
// HandlePacket. Each ring counts what it handled on a cache line of its
// own (the ring is the frame's source MAC's partition), so the rig adds
// no write shared between readers to the path it measures.
type readersRig struct {
	g      *Gateway
	sw     *sdn.Switch
	macs   []packet.MAC
	frames [][]byte
	ts     time.Time
	fan    *capture.Fanout
	pump   *capture.Pump
	next   int
	done   []ringCount
}

// ringCount is a ring's handled frames, on a cache line of its own.
type ringCount struct {
	n atomic.Int64
	_ [56]byte
}

func newReadersRig(tb testing.TB, readers, devices int) *readersRig {
	tb.Helper()
	reg := obs.NewRegistry()
	sw := sdn.NewSwitch(sdn.NewController(sdn.NewRuleCache(), netip.Prefix{}), time.Minute)
	sw.SetMetrics(sdn.NewSwitchMetrics(reg))
	r := &readersRig{
		g:  New(nopAssessor{}, sw, Config{IdleGap: time.Hour, Metrics: NewMetrics(reg)}),
		sw: sw,
		ts: time.Unix(8000, 0).Add(2 * time.Second),
	}
	remote := netip.MustParseAddr("52.20.7.7")
	for i := 0; i < devices; i++ {
		mac := packet.MAC{0x02, 0xBE, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		devIP := netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)})
		pk := packet.NewUDP(mac, packet.MAC{2, 2, 2, 2, 2, 2}, devIP, remote, 40000, 443, []byte("q"))
		r.g.HandlePacket(r.ts.Add(-2*time.Second), pk)
		if err := r.g.FinishSetup(mac, r.ts.Add(-time.Second)); err != nil {
			tb.Fatalf("FinishSetup: %v", err)
		}
		if act, err := r.g.HandlePacket(r.ts, pk); err != nil || act != sdn.ActionForward { // install the flow
			tb.Fatalf("HandlePacket: %v, %v", act, err)
		}
		frame, err := pk.Marshal()
		if err != nil {
			tb.Fatalf("marshal: %v", err)
		}
		r.macs, r.frames = append(r.macs, mac), append(r.frames, frame)
	}
	r.fan = capture.NewFanout(readers, capture.RingConfig{Lossless: true})
	rings, shift := packet.Parts(readers)
	r.done = make([]ringCount, rings)
	r.pump = capture.Attach(r.fan, func(ts time.Time, pk *packet.Packet) {
		if _, err := r.g.HandlePacket(ts, pk); err != nil {
			tb.Errorf("HandlePacket: %v", err)
		}
		r.done[pk.SrcMAC.Word().Part(shift)].n.Add(1)
	}, capture.PumpConfig{Metrics: capture.NewMetrics(reg)})
	return r
}

func (r *readersRig) handled() int64 {
	var n int64
	for i := range r.done {
		n += r.done[i].n.Load()
	}
	return n
}

// forward injects n frames, the devices' in turn, and returns once the
// readers have taken all of them through HandlePacket and Process.
func (r *readersRig) forward(tb testing.TB, n int) {
	target := r.handled() + int64(n)
	for i := 0; i < n; i++ {
		if err := r.fan.Inject(r.ts, r.frames[r.next]); err != nil {
			tb.Fatalf("inject: %v", err)
		}
		if r.next++; r.next == len(r.frames) {
			r.next = 0
		}
	}
	r.fan.Flush()
	for r.handled() < target {
		runtime.Gosched()
	}
}

func (r *readersRig) stop(tb testing.TB) {
	if err := r.pump.Close(); err != nil {
		tb.Errorf("pump close: %v", err)
	}
	r.g.Close()
}

// BenchmarkPumpForwardReaders is BenchmarkPumpForward over 4 096 resident
// devices, one producer feeding one reader or two. With two, each
// reader's devices fill gateway shards and switch stripes the other's do
// not take (packet.MACWord.Part), so what the readers share is the
// producer and the machine. Compare readers=2 with readers=1: perfect
// scaling halves ns/op.
func BenchmarkPumpForwardReaders(b *testing.B) {
	for _, readers := range []int{1, 2} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			r := newReadersRig(b, readers, 4096)
			defer r.stop(b)
			r.forward(b, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			r.forward(b, b.N)
		})
	}
}

// TestTwoReaderForwardCounts: two fanout readers forwarding at once
// forward every frame injected and count each once — in the switch's
// per-stripe counts Stats sums, and in each device's counters — and both
// readers take a share.
func TestTwoReaderForwardCounts(t *testing.T) {
	const devices, per = 64, 40
	r := newReadersRig(t, 2, devices)
	defer r.stop(t)
	before := r.sw.Stats()
	was := make([]sdn.DeviceStats, devices)
	for i, mac := range r.macs {
		was[i], _ = r.sw.Device(mac)
	}
	r.forward(t, devices*per)
	got := r.sw.Stats()
	if fw, hits := got.Forwarded-before.Forwarded, got.TableHits-before.TableHits; fw != devices*per || hits != devices*per ||
		got.Dropped != before.Dropped || got.PacketIns != before.PacketIns {
		t.Errorf("%d frames injected: Stats went from %+v to %+v", devices*per, before, got)
	}
	for i, mac := range r.macs {
		now, _ := r.sw.Device(mac)
		if now.Packets-was[i].Packets != per || now.Bytes-was[i].Bytes != per*uint64(len(r.frames[i])) {
			t.Errorf("%v: %d packets, %d bytes counted of %d frames", mac, now.Packets-was[i].Packets, now.Bytes-was[i].Bytes, per)
		}
	}
	for ring := range r.done {
		if r.done[ring].n.Load() == 0 {
			t.Errorf("ring %d handled no frame", ring)
		}
	}
}

// catalogAssessor answers like a small catalog: a third of the devices
// restricted with a permitted endpoint and a vulnerability record, the
// rest trusted — so a journaled or snapshotted device is the size a real
// one is.
type catalogAssessor struct{ calls atomic.Uint32 }

func (a *catalogAssessor) Assess(fingerprint.Fingerprint) (iotssp.Assessment, error) {
	if a.calls.Add(1)%3 != 0 {
		return iotssp.Assessment{Type: "HueBridge", Known: true, Level: sdn.Trusted}, nil
	}
	return iotssp.Assessment{Type: "EdnetCam", Known: true, Level: sdn.Restricted,
		PermittedIPs: []netip.Addr{netip.MustParseAddr("52.20.7.7")},
		Vulnerabilities: []vulndb.Record{{ID: "RPR-2016-2201", DeviceType: "EdnetCam", Severity: vulndb.SeverityCritical,
			Summary: "IP camera exposes video stream with hard-coded default credentials"}},
	}, nil
}

// durableGateway10k journals 10,000 assessed devices into dir and
// returns the gateway and its store.
func durableGateway10k(b *testing.B, dir string) (*Gateway, *store.Store) {
	b.Helper()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctrl := sdn.NewController(sdn.NewRuleCache(), netip.Prefix{})
	g := New(&catalogAssessor{}, sdn.NewSwitch(ctrl, time.Minute), Config{Store: st})
	base := time.Unix(7000, 0)
	for i := 0; i < 10000; i++ {
		mac := packet.MAC{0x02, 0xBE, 0, byte(i >> 8), byte(i), 9}
		arp := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"), netip.MustParseAddr("192.168.1.1"))
		if _, err := g.HandlePacket(base, arp); err != nil {
			b.Fatal(err)
		}
		if err := g.FinishSetup(mac, base.Add(time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	return g, st
}

// BenchmarkCheckpoint10k is one checkpoint of 10,000 assessed devices:
// the snapshot written and made durable, the journal it covers retired.
// B/op is what a checkpoint holds at once beyond the live state.
func BenchmarkCheckpoint10k(b *testing.B) {
	g, st := durableGateway10k(b, b.TempDir())
	defer st.Close()
	if err := g.Checkpoint(); err != nil { // retires the 20,000 set-up records
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover10k is a restart: store.Open of a state directory
// holding a 10,000-device snapshot and a 2,000-record journal on top,
// and Recover into a fresh gateway.
func BenchmarkRecover10k(b *testing.B) {
	dir := b.TempDir()
	g, st := durableGateway10k(b, dir)
	if err := g.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	base := time.Unix(8000, 0)
	for i := 0; i < 1000; i++ {
		mac := packet.MAC{0x02, 0xBF, 0, byte(i >> 8), byte(i), 9}
		arp := packet.NewARP(mac, netip.MustParseAddr("192.168.1.9"), netip.MustParseAddr("192.168.1.1"))
		if _, err := g.HandlePacket(base, arp); err != nil {
			b.Fatal(err)
		}
		if err := g.FinishSetup(mac, base.Add(time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, rec, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fresh := benchGateway(DefaultShards, 0)
		if stats, err := fresh.Recover(rec, base); err != nil || stats.Devices != 11000 || stats.Degraded {
			b.Fatalf("recovered %s (%v)", stats, err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
