package capture_test

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
	"iotsentinel/internal/packet"
	"iotsentinel/internal/pcap"
	"iotsentinel/internal/sdn"
	"iotsentinel/internal/testutil"
	"iotsentinel/internal/vulndb"
)

// Delivery conformance: the same traffic replayed from a pcap file and
// injected straight into a fanout must leave a gateway in bit-identical
// state. Both are producers on the one way in (Fanout.Inject), so every
// test that runs against a trace is evidence about the live path too.

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
// every fingerprint it is asked to assess, so every path runs the
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

// conformanceStream merges captures from several profiles into one
// deterministic timeline of wire frames. Timestamps are
// microsecond-aligned by construction (the generator works in
// millisecond gaps), so the pcap format's microsecond resolution loses
// nothing — a prerequisite for bit-identity across paths.
func conformanceStream(t *testing.T) []pcap.Record {
	t.Helper()
	var stream []pcap.Record
	for pi, p := range devices.Catalog()[:5] {
		for _, cap := range devices.GenerateCaptures(p, 2, 31+int64(pi)) {
			for i, pk := range cap.Packets {
				frame, err := pk.Marshal()
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				stream = append(stream, pcap.Record{Time: cap.Times[i], Data: frame})
			}
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time.Before(stream[j].Time) })
	for _, rec := range stream {
		if us := rec.Time.UnixNano() % int64(time.Microsecond); us != 0 {
			t.Fatalf("generator produced sub-microsecond timestamp %v; pcap would truncate it", rec.Time)
		}
	}
	return stream
}

// pathResult is everything a delivery path leaves behind.
type pathResult struct {
	devices []gateway.DeviceInfo
	keys    []fingerprint.Key
}

// deliverFunc hands every frame of stream to h through readers pump
// readers, and returns once they have all drained.
type deliverFunc func(t *testing.T, stream []pcap.Record, readers int, h capture.Handler)

// runPath builds a fresh service and gateway, delivers the stream into
// its data path, and snapshots the end state.
func runPath(t *testing.T, stream []pcap.Record, readers int, deliver deliverFunc) pathResult {
	t.Helper()
	rec := &recordingAssessor{svc: conformanceService(t)}
	cache := sdn.NewRuleCache()
	ctrl := sdn.NewController(cache, netip.Prefix{})
	sw := sdn.NewSwitch(ctrl, time.Minute)
	gw := gateway.New(rec, sw, gateway.Config{IdleGap: 5 * time.Second, Shards: 8})
	defer gw.Close()

	deliver(t, stream, readers, func(ts time.Time, pk *packet.Packet) {
		if _, err := gw.HandlePacket(ts, pk); err != nil {
			t.Errorf("HandlePacket: %v", err)
		}
	})
	gw.FinishAllSetups(stream[len(stream)-1].Time.Add(time.Minute))
	return pathResult{devices: gw.Devices(), keys: rec.sortedKeys()}
}

// replayPath writes the stream to a pcap file and plays it with
// capture.Replay, whose fanout has one ring per GOMAXPROCS.
func replayPath(t *testing.T, stream []pcap.Record, readers int, h capture.Handler) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conformance.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcap.WriteAll(f, stream); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(readers))
	frames, last, err := capture.Replay([]string{path}, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if frames != len(stream) || !last.Equal(stream[len(stream)-1].Time) {
		t.Fatalf("replay reported %d frames up to %v, want %d up to %v", frames, last, len(stream), stream[len(stream)-1].Time)
	}
}

// injectPath injects the stream straight into a fanout, the way a live
// producer does.
func injectPath(t *testing.T, stream []pcap.Record, readers int, h capture.Handler) {
	t.Helper()
	f := capture.NewFanout(readers, capture.RingConfig{Lossless: true})
	p := capture.Attach(f, h, capture.PumpConfig{})
	defer p.Close()
	for _, rec := range stream {
		if err := f.Inject(rec.Time, rec.Data); err != nil {
			t.Fatalf("inject: %v", err)
		}
	}
}

// TestSourceConformance is the differential guarantee of this layer:
// pcap replay and direct injection, each through 1, 2 and 4 readers,
// land the gateway in identical device state and assess the identical
// fingerprint multiset.
//
// It is also the proof that decoding in place is safe. The reference
// run is ordinary; every other run has the rings overwrite each block
// with a poison byte the moment the reader hands it back. Packets alias
// those blocks, so anything downstream that kept one — a Payload, a
// *Packet the reader has since reused — would read poison and diverge.
func TestSourceConformance(t *testing.T) {
	defer testutil.AssertNoGoroutineLeaks(t)()

	stream := conformanceStream(t)
	ref := runPath(t, stream, 1, replayPath)
	if len(ref.devices) == 0 {
		t.Fatal("conformance stream produced no devices")
	}
	if len(ref.keys) == 0 {
		t.Fatal("conformance stream produced no assessments")
	}

	defer capture.PoisonReleasedBlocks(0xDB)()
	paths := []struct {
		name    string
		deliver deliverFunc
	}{
		{"pcap", replayPath},
		{"inject", injectPath},
	}
	for _, p := range paths {
		for _, readers := range []int{1, 2, 4} {
			got := runPath(t, stream, readers, p.deliver)
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
