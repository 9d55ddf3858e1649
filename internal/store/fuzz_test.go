package store

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/vulndb"
)

// fullEvent populates every field a record carries.
func fullEvent() Event {
	at := time.Date(2026, 10, 2, 8, 0, 0, 123, time.UTC)
	return Event{
		Seq: 9, Kind: EvQuarantined, MAC: mac(7), At: at, FirstSeen: at.Add(-time.Minute),
		Type: "EdnetCam", Level: 2, SetupPackets: 22, Attempts: 3,
		PermittedIPs: []netip.Addr{netip.MustParseAddr("52.20.7.7"), netip.MustParseAddr("fe80::1%eth0"), {}},
		Vulns:        []vulndb.Record{{ID: "RPR-2016-2201", DeviceType: "EdnetCam", Severity: vulndb.SeverityCritical, Summary: "default credentials", FixedInUpdate: true}},
		Fingerprint:  fingerprint.F{1, 2, 3},
		Cluster:      "c-0001", Members: 4, Model: "aa11", BaselineModel: "bb22", Canaries: []string{"gw-1", "gw-2"},
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	want := fullEvent()
	payload, err := appendEvent(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEvent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	for cut := range payload {
		if _, err := decodeEvent(payload[:cut]); err == nil {
			t.Fatalf("record cut to %d of %d bytes decoded", cut, len(payload))
		}
	}
	if _, err := decodeEvent(append(payload, 0)); err == nil {
		t.Fatal("record with a trailing byte decoded")
	}
	if _, err := appendEvent(nil, &Event{Kind: "no_such_kind"}); err == nil {
		t.Fatal("unknown kind encoded")
	}
	if _, err := appendEvent(nil, &Event{Kind: EvAssessed, Level: 1 << 40}); err == nil {
		t.Fatal("int beyond the field's width encoded")
	}
}

// FuzzEventDecode throws arbitrary payloads at the record decoder. It must not panic, and whatever it accepts must
// re-encode to a record that decodes to the same event and re-encodes to
// the same bytes.
func FuzzEventDecode(f *testing.F) {
	for _, ev := range []Event{fullEvent(), {Kind: EvCaptureStarted, MAC: mac(1)}, {Kind: EvRemoved}} {
		payload, err := appendEvent(nil, &ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// One record of every kind, every field set: the per-kind coverage
	// the JSON journal fixture used to seed.
	for _, kind := range kindCodes[1:] {
		ev := fullEvent()
		ev.Kind = kind
		payload, err := appendEvent(nil, &ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// Refused: a JSON record as releases before the binary format wrote
	// them, no payload at all, and a count that runs past the end.
	f.Add([]byte(`{"seq":5,"kind":"assessed","mac":"02:00:00:00:00:01","at":"2026-10-02T08:00:00Z","type":"EdnetCam","level":2}`))
	f.Add([]byte{})
	f.Add([]byte{codecVersion, 2, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		ev, err := decodeEvent(payload)
		if err != nil {
			return
		}
		first, err := appendEvent(nil, &ev)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := decodeEvent(first)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, ev) {
			t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", again, ev)
		}
		if second, err := appendEvent(nil, &again); err != nil || !bytes.Equal(second, first) {
			t.Fatalf("re-encoding is not a fixed point (%v)", err)
		}
	})
}

// encodeRow is the row of snap's one device or parked fingerprint.
func encodeRow(snap *Snapshot) []byte {
	if len(snap.Devices) == 1 {
		c := codec{b: []byte{codecVersion, rowDevice}}
		c.device(&snap.Devices[0])
		return c.b
	}
	c := codec{b: []byte{codecVersion, rowQuarantine}}
	c.quarantine(&snap.Quarantine[0])
	return c.b
}

// FuzzSnapshotRowDecode throws arbitrary payloads at the snapshot's row
// decoder, as a row in the middle of a file whose learn section is open
// (so every row kind is in place). It must not panic, and a device or
// quarantine row it accepts must survive re-encoding.
func FuzzSnapshotRowDecode(f *testing.F) {
	ev := fullEvent()
	f.Add(encodeRow(&Snapshot{Devices: []DeviceRecord{{MAC: ev.MAC, State: "assessed", Type: ev.Type, Level: 2,
		PermittedIPs: ev.PermittedIPs, Vulnerabilities: ev.Vulns, FirstSeen: ev.FirstSeen, AssessedAt: ev.At, SetupPackets: 22}}}))
	f.Add(encodeRow(&Snapshot{Quarantine: []QuarantineRecord{{MAC: ev.MAC, Since: ev.At, Fingerprint: ev.Fingerprint}}}))
	f.Add([]byte{codecVersion, rowMember, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5})
	f.Add([]byte{codecVersion, rowCluster, 1, 0, 'c', 0, 0, 1, 0})
	f.Add([]byte{codecVersion, rowTrailer, 3, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		snap := &Snapshot{Learn: &LearnState{Clusters: []ClusterRecord{{ID: "c"}}}}
		if _, err := snap.addRow(payload, 3); err != nil {
			return
		}
		if len(snap.Devices)+len(snap.Quarantine) == 0 {
			return
		}
		again := &Snapshot{}
		if _, err := again.addRow(encodeRow(snap), 3); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again.Devices, snap.Devices) || !reflect.DeepEqual(again.Quarantine, snap.Quarantine) {
			t.Fatalf("round trip changed the row:\n got %+v\nwant %+v", again, snap)
		}
	})
}
