package gateway

import (
	"runtime"
	"testing"
	"time"

	"iotsentinel/internal/devices"
)

// parkedEntryBytes is the heap a gateway keeps per parked fingerprint
// after a collection. With the service down it quarantines two batches
// of n devices, each device's setup a re-addressed copy of one
// EdnetCam capture: every device of the first batch is parked, none of
// the second (the maxQuarantined bound is reached), so the two batches'
// difference, per device, is one parked entry. It uses the exported API
// alone, so it reads the same figure in another checkout.
func parkedEntryBytes(t *testing.T, n int) float64 {
	p, err := devices.ProfileByID("EdnetCam")
	if err != nil {
		t.Fatal(err)
	}
	setup := devices.GenerateCaptures(p, 1, 7)[0]
	g := newGatewayWithAssessor(failingAssessor{}, Config{})
	batch := func(first int) float64 {
		var before, after runtime.MemStats
		runtime.GC() // twice: the second empties the sync.Pool victim caches
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := first; i < first+n; i++ {
			for j, pk := range setup.Packets {
				pk.SrcMAC = testMAC(i)
				if _, err := g.HandlePacket(setup.Times[j], pk); err != nil {
					t.Fatal(err)
				}
			}
		}
		g.FinishAllSetups(setup.Times[len(setup.Times)-1].Add(time.Second))
		runtime.GC()
		runtime.ReadMemStats(&after)
		return float64(after.HeapAlloc) - float64(before.HeapAlloc)
	}
	parked := batch(0)
	if g.QuarantineLen() != n {
		t.Fatalf("first batch: %d parked, want %d", g.QuarantineLen(), n)
	}
	unparked := batch(n)
	if g.QuarantineLen() != n {
		t.Fatalf("second batch: %d parked, want %d", g.QuarantineLen(), n)
	}
	runtime.KeepAlive(g)
	return (parked - unparked) / float64(n)
}

// TestParkedEntryFootprint pins what a parked fingerprint costs the
// gateway at the quarantine bound: at most 512 B per entry. An entry
// holding a whole Fingerprint kept about 2.3 KB (2 240 B of value, 2 208
// of them F′); an entry of F keeps the 64-byte entry and 8 B a row. Not
// parallel: it reads the process heap.
func TestParkedEntryFootprint(t *testing.T) {
	got := parkedEntryBytes(t, maxQuarantined)
	t.Logf("%.0f B per parked entry", got)
	if got > 512 {
		t.Errorf("%.0f B per parked entry, bound 512", got)
	}
}
