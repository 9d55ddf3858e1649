package gateway

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/vulndb"
)

// trainServiceCached mirrors trainService exactly — same dataset, same
// seed, bit-identical classifier bank — but attaches an identification
// cache to the identifier.
func trainServiceCached(t *testing.T) *iotssp.Service {
	t.Helper()
	full := devices.GenerateDataset(12, 21)
	samples := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2"} {
		samples[core.TypeID(typ)] = full[typ]
	}
	id, err := core.Train(samples, core.Config{Seed: 2, AcceptThreshold: 0.7, CacheSize: 2048})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	svc := iotssp.New(id, vulndb.NewDefault())
	svc.SetEndpoints("EdnetCam", []netip.Addr{netip.MustParseAddr("52.20.7.7")})
	svc.SetEndpoints("iKettle2", []netip.Addr{netip.MustParseAddr("52.21.3.3")})
	return svc
}

// timedPacket is one packet of the merged replay timeline.
type timedPacket struct {
	ts time.Time
	pk *packet.Packet
}

// replayStream builds a deterministic multi-device setup storm: several
// captures from distinct profiles (each capture has its own device MAC)
// merged into one timeline, with multicast chatter sprinkled in. The
// same seed always yields the same stream.
func replayStream(t *testing.T, capsPerProfile int, seed int64) []timedPacket {
	t.Helper()
	var stream []timedPacket
	profiles := devices.Catalog()[:6]
	for pi, p := range profiles {
		for _, cap := range devices.GenerateCaptures(p, capsPerProfile, seed+int64(pi)) {
			for i := range cap.Packets {
				stream = append(stream, timedPacket{ts: cap.Times[i], pk: cap.Packets[i]})
			}
		}
	}
	// Multicast frames exercise the no-state path.
	mcast := packet.MAC{0x01, 0x00, 0x5e, 0, 0, 0xfb}
	base := time.Unix(1460200000, 0)
	for i := 0; i < 25; i++ {
		pk := packet.NewUDP(mcast, packet.MAC{0x01, 0x00, 0x5e, 0, 0, 0xfb},
			netip.MustParseAddr("192.168.1.50"), netip.MustParseAddr("224.0.0.251"),
			5353, 5353, []byte("mdns"))
		stream = append(stream, timedPacket{ts: base.Add(time.Duration(i) * time.Second), pk: pk})
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].ts.Before(stream[j].ts) })
	return stream
}

func gatewayOn(svc iotssp.Assessor, cfg Config) *Gateway {
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	return New(svc, sw, cfg)
}

// TestShardedDifferentialIdentical is the shard half of the ISSUE's
// differential guarantee: a single-shard gateway and a many-shard
// gateway fed the identical deterministic replay must emit identical
// per-packet actions and identical final device states. Both gateways
// share one trained service, so any divergence is the sharding layer's
// fault.
func TestShardedDifferentialIdentical(t *testing.T) {
	svc := trainService(t)
	stream := replayStream(t, 2, 11)

	single := gatewayOn(svc, Config{IdleGap: 5 * time.Second, Shards: 1})
	sharded := gatewayOn(svc, Config{IdleGap: 5 * time.Second, Shards: 16})
	if single.Shards() != 1 || sharded.Shards() != 16 {
		t.Fatalf("shard counts = %d/%d, want 1/16", single.Shards(), sharded.Shards())
	}

	for i, tp := range stream {
		a1, err1 := single.HandlePacket(tp.ts, tp.pk)
		a2, err2 := sharded.HandlePacket(tp.ts, tp.pk)
		if err1 != nil || err2 != nil {
			t.Fatalf("packet %d: errors %v / %v", i, err1, err2)
		}
		if a1 != a2 {
			t.Fatalf("packet %d (src %v): single-shard action %v, sharded action %v",
				i, tp.pk.SrcMAC, a1, a2)
		}
	}
	end := stream[len(stream)-1].ts.Add(time.Minute)
	single.FinishAllSetups(end)
	sharded.FinishAllSetups(end)

	d1, d2 := single.Devices(), sharded.Devices()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("device states diverge:\nsingle:  %+v\nsharded: %+v", d1, d2)
	}
	if len(d1) == 0 {
		t.Fatal("replay produced no devices")
	}
	for _, d := range d1 {
		if d.State == StateMonitoring {
			t.Errorf("device %v still monitoring after FinishAllSetups", d.MAC)
		}
	}
}

// TestAsyncQueueDifferentialIdentical: moving identification onto the
// bounded per-shard queues must not change where any device ends up.
// Per-packet actions can legitimately differ while an assessment is in
// flight (the device keeps forwarding as monitoring), so the guarantee
// — and the assertion — is on final device states.
func TestAsyncQueueDifferentialIdentical(t *testing.T) {
	svc := trainService(t)
	stream := replayStream(t, 2, 17)

	sync := gatewayOn(svc, Config{IdleGap: 5 * time.Second, Shards: 1})
	async := gatewayOn(svc, Config{IdleGap: 5 * time.Second, Shards: 8, AssessQueue: 256})
	defer async.Close()

	for i, tp := range stream {
		if _, err := sync.HandlePacket(tp.ts, tp.pk); err != nil {
			t.Fatalf("sync packet %d: %v", i, err)
		}
		if _, err := async.HandlePacket(tp.ts, tp.pk); err != nil {
			t.Fatalf("async packet %d: %v", i, err)
		}
	}
	async.WaitAssessIdle()
	end := stream[len(stream)-1].ts.Add(time.Minute)
	sync.FinishAllSetups(end)
	async.FinishAllSetups(end)
	async.WaitAssessIdle()

	d1, d2 := sync.Devices(), async.Devices()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("device states diverge:\nsync:  %+v\nasync: %+v", d1, d2)
	}
}

// TestCachedServiceDifferentialIdentical runs the gateway replay against
// a service whose identifier caches, and one whose identifier does not:
// end-to-end device states must match. This closes the loop on the
// core-level cache differential by proving the equivalence holds
// through the assessment and enforcement layers too.
func TestCachedServiceDifferentialIdentical(t *testing.T) {
	plainSvc := trainService(t)
	cachedSvc := trainServiceCached(t) // identical seed → bit-identical bank, plus a cache
	stream := replayStream(t, 3, 23)

	plain := gatewayOn(plainSvc, Config{IdleGap: 5 * time.Second})
	cached := gatewayOn(cachedSvc, Config{IdleGap: 5 * time.Second})

	for i, tp := range stream {
		a1, err1 := plain.HandlePacket(tp.ts, tp.pk)
		a2, err2 := cached.HandlePacket(tp.ts, tp.pk)
		if err1 != nil || err2 != nil {
			t.Fatalf("packet %d: errors %v / %v", i, err1, err2)
		}
		if a1 != a2 {
			t.Fatalf("packet %d: plain action %v, cached action %v", i, a1, a2)
		}
	}
	end := stream[len(stream)-1].ts.Add(time.Minute)
	plain.FinishAllSetups(end)
	cached.FinishAllSetups(end)
	if !reflect.DeepEqual(plain.Devices(), cached.Devices()) {
		t.Fatal("device states diverge between cached and uncached service")
	}
}

// TestShardIndexStable checks the shard placement — the top bits of the
// MAC's partition, packet.MACWord.Part — and the power-of-two rounding.
// The partition itself, and its nesting with the capture rings and the
// switch's stripes, is pinned in internal/packet.
func TestShardIndexStable(t *testing.T) {
	shards := func(n int) *Gateway { return New(nil, nil, Config{Shards: n}) }
	if got := shards(0).Shards(); got != DefaultShards {
		t.Errorf("Shards 0 resolves to %d, want %d", got, DefaultShards)
	}
	for _, c := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {100, 128},
	} {
		if got := shards(c.in).Shards(); got != c.want {
			t.Errorf("Shards %d resolves to %d, want %d", c.in, got, c.want)
		}
	}
	g8, g1 := shards(8), shards(1)
	mac := packet.MAC{0x02, 0xd0, 0, 0, 0, 1}
	if a, b := g8.shardOf(mac), g8.shardOf(mac); a != b {
		t.Error("shardOf not deterministic")
	}
	if s := g1.shardOf(mac); s != g1.shards[0] {
		t.Error("one shard must pin every MAC to shard 0")
	}
	// The hash must actually spread: 256 sequential MACs over 8 shards
	// should leave no shard empty.
	seen := make(map[*shard]bool)
	for i := 0; i < 256; i++ {
		m := packet.MAC{0x02, 0xd0, 0, 0, byte(i >> 8), byte(i)}
		if s := g8.shardOf(m); s != g8.shards[m.Word().Part(64-3)] {
			t.Fatalf("%v placed off its partition", m)
		}
		seen[g8.shardOf(m)] = true
	}
	if len(seen) != 8 {
		t.Errorf("256 MACs landed on %d/8 shards", len(seen))
	}
}
