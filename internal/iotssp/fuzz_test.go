package iotssp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"iotsentinel/internal/features"
	"iotsentinel/internal/fingerprint"
)

// FuzzAssessBody throws arbitrary bytes at the handler's decode step.
// It must not panic; a body that claims more rows than it holds must be
// refused before anything of that size is allocated; and an accepted
// body is exactly one block — it re-encodes to itself — whose
// fingerprint is what FromPacked makes of its words.
func FuzzAssessBody(f *testing.F) {
	for _, typ := range []string{"Aria", "EdnetCam"} {
		body, err := fingerprint.AppendF(nil, probeFor(f, typ, 7).F)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)-3])
		f.Add(append(body, 0))
	}
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte(`{"f":[[60,0,0]]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		claimed := 0
		if len(body) >= 2 {
			claimed = int(binary.BigEndian.Uint16(body))
		}
		if short := len(body)-2 < 8*claimed; short && claimed >= 1024 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeAssessBody(body)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted %d bytes claiming %d rows", len(body), claimed)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(8*claimed) {
				t.Fatalf("refusing %d bytes that claim %d rows allocated %d bytes", len(body), claimed, got)
			}
			return
		}
		fp, err := decodeAssessBody(body)
		if err != nil {
			return
		}
		if claimed == 0 || len(body) != 2+8*claimed {
			t.Fatalf("accepted %d bytes claiming %d rows", len(body), claimed)
		}
		words := make(fingerprint.F, claimed)
		for i := range words {
			words[i] = features.Packed(binary.BigEndian.Uint64(body[2+8*i:]))
		}
		if !words.Valid() {
			t.Fatalf("accepted a word the extractor cannot produce: %x", body)
		}
		if re, err := fingerprint.AppendF(nil, words); err != nil || !bytes.Equal(re, body) {
			t.Fatalf("accepted body does not re-encode to itself (%v):\n got %x\nwant %x", err, re, body)
		}
		if want := fingerprint.FromPacked(words); !reflect.DeepEqual(fp, want) {
			t.Fatalf("decoded fingerprint is not FromPacked of the body's words:\n got %+v\nwant %+v", fp, want)
		}
	})
}
