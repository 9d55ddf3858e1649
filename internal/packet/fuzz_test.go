package packet_test

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"iotsentinel/internal/devices"
	"iotsentinel/internal/packet"
)

// catalogFrames marshals one setup capture of every catalog profile:
// the protocol mix the decoder actually meets.
func catalogFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var frames [][]byte
	for pi, p := range devices.Catalog() {
		for _, cap := range devices.GenerateCaptures(p, 1, 100+int64(pi)) {
			for _, pk := range cap.Packets {
				frame, err := pk.Marshal()
				if err != nil {
					tb.Fatalf("%s: marshal: %v", p.ID, err)
				}
				frames = append(frames, frame)
			}
		}
	}
	return frames
}

// FuzzDecode covers the first parser LAN-controlled bytes reach. For
// any input neither entry point panics and they agree on acceptance; on
// an accepted frame DecodeInto and Decode agree field for field, Size is
// the frame length, and DecodeInto's Payload lies inside the frame.
func FuzzDecode(f *testing.F) {
	for _, frame := range catalogFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		// DecodeInto must overwrite whatever the reused Packet held.
		in := packet.Packet{Link: packet.LinkLLC, App: packet.AppNTP, SrcPort: 9, Payload: []byte("stale")}
		errInto := packet.DecodeInto(&in, frame)
		own, err := packet.Decode(frame)
		if (errInto == nil) != (err == nil) {
			t.Fatalf("DecodeInto err %v, Decode err %v", errInto, err)
		}
		if err != nil {
			return
		}
		if in.Size != len(frame) || own.Size != len(frame) {
			t.Fatalf("Size %d / %d, frame is %d bytes", in.Size, own.Size, len(frame))
		}
		if n := len(in.Payload); n > 0 {
			base := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
			at := uintptr(unsafe.Pointer(unsafe.SliceData(in.Payload)))
			if at < base || at+uintptr(n) > base+uintptr(len(frame)) {
				t.Fatalf("DecodeInto payload of %d bytes lies outside the %d-byte frame", n, len(frame))
			}
		}
		if !bytes.Equal(in.Payload, own.Payload) {
			t.Fatalf("payloads differ: DecodeInto %x, Decode %x", in.Payload, own.Payload)
		}
		in.Payload, own.Payload = nil, nil
		if !reflect.DeepEqual(&in, own) {
			t.Fatalf("DecodeInto %+v\nDecode     %+v", in, *own)
		}
	})
}

// TestDecodeOwnsItsResult pins Decode's contract now that the parser
// aliases: the Packet it returns does not change when the source frame
// is overwritten (pcap readers, netsim and the capture conformance
// stream reuse or drop their buffers).
func TestDecodeOwnsItsResult(t *testing.T) {
	withPayload := 0
	for _, frame := range catalogFrames(t) {
		pk, err := packet.Decode(frame)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		want := *pk
		want.Payload = bytes.Clone(pk.Payload)
		if pk.HasRawData() {
			withPayload++
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		if !reflect.DeepEqual(*pk, want) {
			t.Fatalf("decoded packet changed with its source frame:\n got %+v\nwant %+v", *pk, want)
		}
	}
	if withPayload == 0 {
		t.Fatal("no catalog frame carried a payload; the test proved nothing")
	}
}
