package capture_test

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"iotsentinel/internal/capture"
	"iotsentinel/internal/core"
	"iotsentinel/internal/devices"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/gateway"
	"iotsentinel/internal/iotssp"
	"iotsentinel/internal/netsim"
	"iotsentinel/internal/packet"
	"iotsentinel/internal/pcap"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/testutil"
	"iotsentinel/internal/vulndb"
)

// Source conformance: the same traffic delivered through a replayed
// pcap file, the netsim lab's mirror tap, and a raw ring fanout must
// leave a gateway in bit-identical state. This is what makes the
// Source seam trustworthy — every test that runs against the lab or a
// trace is evidence about the live path too.

// conformanceService trains a fresh, deterministically seeded service.
// Each delivery path gets its own instance so no shared classifier
// cache can couple the runs.
func conformanceService(t *testing.T) *iotssp.Service {
	t.Helper()
	full := devices.GenerateDataset(12, 21)
	samples := make(map[core.TypeID][]fingerprint.Fingerprint)
	for _, typ := range []string{"Aria", "HueBridge", "EdnetCam", "iKettle2"} {
		samples[core.TypeID(typ)] = full[typ]
	}
	id, err := core.Train(samples, core.Config{Seed: 2, AcceptThreshold: 0.7})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	svc := iotssp.New(id, vulndb.NewDefault())
	svc.SetEndpoints("EdnetCam", []netip.Addr{netip.MustParseAddr("52.20.7.7")})
	svc.SetEndpoints("iKettle2", []netip.Addr{netip.MustParseAddr("52.21.3.3")})
	return svc
}

// recordingAssessor wraps a service and keeps the canonical key of
// every fingerprint it is asked to assess, so all three paths run the
// identical code path.
type recordingAssessor struct {
	svc  *iotssp.Service
	mu   sync.Mutex
	keys []fingerprint.Key
}

func (r *recordingAssessor) Assess(fp fingerprint.Fingerprint) (iotssp.Assessment, error) {
	r.mu.Lock()
	r.keys = append(r.keys, fp.CanonicalKey())
	r.mu.Unlock()
	return r.svc.Assess(fp)
}

func (r *recordingAssessor) sortedKeys() []fingerprint.Key {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]fingerprint.Key(nil), r.keys...)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

type timedPacket struct {
	ts time.Time
	pk *packet.Packet
}

// conformanceStream merges captures from several profiles into one
// deterministic timeline. Timestamps are microsecond-aligned by
// construction (the generator works in millisecond gaps), so the pcap
// format's microsecond resolution loses nothing — a prerequisite for
// bit-identity across paths.
func conformanceStream(t *testing.T) []timedPacket {
	t.Helper()
	var stream []timedPacket
	for pi, p := range devices.Catalog()[:5] {
		for _, cap := range devices.GenerateCaptures(p, 2, 31+int64(pi)) {
			for i := range cap.Packets {
				stream = append(stream, timedPacket{ts: cap.Times[i], pk: cap.Packets[i]})
			}
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].ts.Before(stream[j].ts) })
	for _, tp := range stream {
		if us := tp.ts.UnixNano() % int64(time.Microsecond); us != 0 {
			t.Fatalf("generator produced sub-microsecond timestamp %v; pcap would truncate it", tp.ts)
		}
	}
	return stream
}

// pathResult is everything a delivery path leaves behind.
type pathResult struct {
	devices []gateway.DeviceInfo
	keys    []fingerprint.Key
}

// runPath builds a fresh service and gateway, pumps frames delivered
// by feed through cap readers, and snapshots the end state.
func runPath(t *testing.T, stream []timedPacket, readers int, feed func(t *testing.T, stream []timedPacket) capture.Source) pathResult {
	t.Helper()
	rec := &recordingAssessor{svc: conformanceService(t)}
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	gw := gateway.New(rec, sw, gateway.Config{IdleGap: 5 * time.Second, Shards: 8})
	defer gw.Close()

	src := feed(t, stream)
	p := capture.Start(src, func(ts time.Time, pk *packet.Packet) {
		if _, err := gw.HandlePacket(ts, pk); err != nil {
			t.Errorf("HandlePacket: %v", err)
		}
	}, capture.PumpConfig{Readers: readers})
	if err := p.Wait(); err != nil {
		t.Fatalf("pump: %v", err)
	}
	end := stream[len(stream)-1].ts.Add(time.Minute)
	gw.FinishAllSetups(end)
	return pathResult{devices: gw.Devices(), keys: rec.sortedKeys()}
}

func pcapPath(t *testing.T, stream []timedPacket) capture.Source {
	t.Helper()
	recs := make([]pcap.Record, 0, len(stream))
	for _, tp := range stream {
		frame, err := tp.pk.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		recs = append(recs, pcap.Record{Time: tp.ts, Data: frame})
	}
	path := filepath.Join(t.TempDir(), "conformance.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcap.WriteAll(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := capture.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func netsimPath(t *testing.T, stream []timedPacket) capture.Source {
	t.Helper()
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	n := netsim.New(sw, netsim.DefaultModel(), 7)
	tap := n.NewTap(256)
	go func() {
		defer tap.Close()
		for _, tp := range stream {
			if err := tap.Deliver(tp.ts, tp.pk); err != nil {
				t.Errorf("tap deliver: %v", err)
				return
			}
		}
	}()
	return tap.Source()
}

// ringSource adapts a directly injected ring to the Source seam so the
// raw-ring path reuses runPath unchanged.
type ringSource struct{ *capture.Ring }

func ringPath(t *testing.T, stream []timedPacket) capture.Source {
	t.Helper()
	r := capture.NewRing(capture.RingConfig{Blocks: 8, BlockSize: 64 << 10, Lossless: true})
	go func() {
		defer r.Close()
		for _, tp := range stream {
			frame, err := tp.pk.Marshal()
			if err != nil {
				t.Errorf("marshal: %v", err)
				return
			}
			if err := r.Inject(tp.ts, frame); err != nil {
				t.Errorf("ring inject: %v", err)
				return
			}
		}
	}()
	return ringSource{r}
}

// TestSourceConformance is the differential guarantee of this layer:
// pcap replay, lab mirror tap, and ring fallback, each through 1, 2 and
// 4 readers, land the gateway in identical device state and assess the
// identical fingerprint multiset.
//
// It is also the proof that decoding in place is safe. The reference
// run is ordinary; every other run has the rings overwrite each block
// with a poison byte the moment the reader hands it back. Packets alias
// those blocks, so anything downstream that kept one — a Payload, a
// *Packet the reader has since reused — would read poison and diverge.
func TestSourceConformance(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	stream := conformanceStream(t)
	ref := runPath(t, stream, 1, pcapPath)
	if len(ref.devices) == 0 {
		t.Fatal("conformance stream produced no devices")
	}
	if len(ref.keys) == 0 {
		t.Fatal("conformance stream produced no assessments")
	}

	defer capture.PoisonReleasedBlocks(0xDB)()
	paths := []struct {
		name string
		feed func(*testing.T, []timedPacket) capture.Source
	}{
		{"pcap", pcapPath},
		{"netsim", netsimPath},
		{"ring", ringPath},
	}
	for _, p := range paths {
		for _, readers := range []int{1, 2, 4} {
			got := runPath(t, stream, readers, p.feed)
			if !reflect.DeepEqual(ref.devices, got.devices) {
				t.Errorf("device states diverge between the reference and poisoned %s/%d readers:\nref: %+v\ngot: %+v",
					p.name, readers, ref.devices, got.devices)
			}
			if !reflect.DeepEqual(ref.keys, got.keys) {
				t.Errorf("assessed fingerprints diverge between the reference and poisoned %s/%d readers", p.name, readers)
			}
		}
	}
}
