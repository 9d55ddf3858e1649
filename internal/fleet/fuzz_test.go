package fleet

import (
	"bytes"
	"slices"
	"testing"

	"iotsentinel/internal/fingerprint"
)

// FuzzFrameDecoder throws arbitrary bytes at the frame reader; any
// frame it accepts must survive a re-encode/re-decode round trip.
func FuzzFrameDecoder(f *testing.F) {
	seed := func(t frameType, payload []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, t, payload); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(ftHeartbeat, nil)
	seed(ftHello, []byte(`{"versions":[2],"gatewayId":"g1"}`))
	seed(ftCounters, encodeCounters(42, 7))
	if p, err := encodeBatch([]fingerprint.Fingerprint{testFingerprint(3, 0)}); err == nil {
		seed(ftBatch, p)
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x04})

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, ft, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		ft2, payload2, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if ft2 != ft || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame round trip diverged: %s/%d bytes vs %s/%d bytes",
				ft, len(payload), ft2, len(payload2))
		}
	})
}

// observedPayload is the frame payload a session seals after observing
// fps one by one.
func observedPayload(t *testing.T, fps []fingerprint.Fingerprint) []byte {
	s := &Session{pending: make([]byte, batchHeader)}
	s.cfg.Client.BatchSize, s.cfg.SpoolBatches = maxBatchFingerprints+1, 1
	for _, fp := range fps {
		if err := s.Observe(fp); err != nil {
			t.Fatalf("Observe of a decoded fingerprint: %v", err)
		}
	}
	s.Flush()
	return s.spool[0]
}

// FuzzBatchDecoder throws arbitrary payloads at the batch decoder; any
// batch it accepts must re-encode and re-decode to the same
// fingerprints (decode canonicalizes via FromPacked, so the decoded
// form is the fixed point), and a session that observes them one by one
// must seal the very bytes encodeBatch produces.
func FuzzBatchDecoder(f *testing.F) {
	for _, fps := range [][]fingerprint.Fingerprint{
		{testFingerprint(1, 0)},
		{testFingerprint(5, 10), testFingerprint(2, -3)},
	} {
		if p, err := encodeBatch(fps); err == nil {
			f.Add(p)
		}
	}
	f.Add([]byte{0, 1, 0, 0})
	f.Add([]byte{0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		fps, err := decodeBatch(payload)
		if err != nil {
			return
		}
		re, err := encodeBatch(fps)
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		if sealed := observedPayload(t, fps); !bytes.Equal(sealed, re) {
			t.Fatalf("a session sealed %d bytes for these fingerprints, encodeBatch wrote %d others", len(sealed), len(re))
		}
		fps2, err := decodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(fps2) != len(fps) {
			t.Fatalf("round trip count %d != %d", len(fps2), len(fps))
		}
		for i := range fps {
			if !slices.Equal(fps[i].F, fps2[i].F) {
				t.Fatalf("fingerprint %d F diverged on round trip", i)
			}
			if fps[i].UniqueCount != fps2[i].UniqueCount {
				t.Fatalf("fingerprint %d UniqueCount %d != %d", i, fps[i].UniqueCount, fps2[i].UniqueCount)
			}
		}
	})
}
