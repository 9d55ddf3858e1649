// Package fleet is the control plane that turns one IoT Security
// Service and N Security Gateways into a fleet, the multi-gateway
// architecture of the paper's Fig. 1: gateways register with the
// central service, hold a lease refreshed by heartbeats, stream the
// fingerprints they observe up a persistent connection (replacing a
// per-fingerprint HTTP request for fleet members; the HTTP API stays for
// one-shot clients), and receive versioned model banks down the same
// connection. A rollout controller canaries every new bank on a
// configurable fraction of the fleet, watches the canaries' streamed
// unknown-rate counters, auto-promotes fleet-wide when the canary
// holds and auto-rolls back on regression — journaling each transition
// through internal/store so a crashed controller resumes mid-rollout.
//
// The wire protocol is length-prefixed binary framing:
//
//	| u32 BE length | u8 frame type | payload (length-1 bytes) |
//
// Control frames (hello, welcome, acks) carry small JSON payloads;
// the hot path — fingerprint batches, counters, model blobs — is raw
// binary. The first exchange negotiates the protocol version: the
// client offers every version it speaks, the server answers with the
// highest it shares (or an error frame and a close).
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"iotsentinel/internal/fingerprint"
)

// ProtocolV2 carries fingerprint batches as one packed 64-bit symbol
// per row. V1 carried 23 float64s per row; that layout is gone, not
// kept as a second path, so a V1-only peer is refused at the
// hello/welcome negotiation with the usual no-shared-version error.
const ProtocolV2 uint32 = 2

// supportedVersions lists what this build speaks, preferred first.
var supportedVersions = []uint32{ProtocolV2}

type frameType uint8

const (
	// ftHello (gateway → service): JSON helloMsg. First frame on a
	// connection.
	ftHello frameType = 0x01
	// ftWelcome (service → gateway): JSON welcomeMsg. Accepts the
	// registration and fixes the negotiated version and lease.
	ftWelcome frameType = 0x02
	// ftHeartbeat (gateway → service): empty payload; refreshes the
	// registration lease.
	ftHeartbeat frameType = 0x03
	// ftBatch (gateway → service): binary fingerprint batch (see
	// encodeBatch).
	ftBatch frameType = 0x04
	// ftBatchAck (service → gateway): JSON batchAckMsg.
	ftBatchAck frameType = 0x05
	// ftCounters (gateway → service): 16-byte binary payload, two u64
	// BE: cumulative assessed and unknown counts on that gateway.
	ftCounters frameType = 0x06
	// ftModelPush (service → gateway): 32-byte SHA-256 followed by the
	// model blob.
	ftModelPush frameType = 0x07
	// ftModelAck (gateway → service): JSON modelAckMsg.
	ftModelAck frameType = 0x08
	// ftError (either direction): JSON errorMsg; the sender closes the
	// connection after writing it.
	ftError frameType = 0x09
)

func (t frameType) String() string {
	switch t {
	case ftHello:
		return "hello"
	case ftWelcome:
		return "welcome"
	case ftHeartbeat:
		return "heartbeat"
	case ftBatch:
		return "batch"
	case ftBatchAck:
		return "batch_ack"
	case ftCounters:
		return "counters"
	case ftModelPush:
		return "model_push"
	case ftModelAck:
		return "model_ack"
	case ftError:
		return "error"
	}
	return fmt.Sprintf("frame(0x%02x)", uint8(t))
}

// Frame and payload bounds. Model pushes dominate frame size; control
// and batch frames are orders of magnitude smaller.
const (
	// maxFramePayload bounds any frame's payload (a serialized
	// 27-type bank is single-digit MiB; 64 MiB leaves headroom for
	// much larger catalogs without letting a broken peer OOM us).
	maxFramePayload = 64 << 20
	// maxBatchFingerprints bounds one ftBatch frame.
	maxBatchFingerprints = 4096
	// maxFingerprintRows bounds one fingerprint's F matrix on the
	// wire; real setup captures are tens of rows.
	maxFingerprintRows = 8192
)

var (
	errFrameTooLarge = errors.New("fleet: frame exceeds size limit")
	errFrameEmpty    = errors.New("fleet: zero-length frame")
)

// writeFrame writes one frame. Callers serialize writes per
// connection (framedConn does).
func writeFrame(w io.Writer, t frameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return errFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = uint8(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, enforcing the payload bound before
// allocating. The returned payload aliases a fresh buffer.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, errFrameEmpty
	}
	if n > maxFramePayload+1 {
		return 0, nil, errFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("fleet: short frame: %w", err)
	}
	return frameType(buf[0]), buf[1:], nil
}

// DefaultWriteTimeout bounds fleet frame writes when the config does
// not say otherwise.
const DefaultWriteTimeout = 10 * time.Second

// framedConn is either end of a fleet connection. Writers on any
// goroutine share the socket — a gateway's heartbeats, batches and model
// acks; a service's batch acks and model pushes — so frame writes are
// serialized, and each is bounded by writeTimeout: a stalled peer
// surfaces as a write error instead of wedging the writer.
type framedConn struct {
	c            net.Conn
	writeTimeout time.Duration
	wmu          sync.Mutex
}

func (fc *framedConn) write(t frameType, payload []byte) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.c.SetWriteDeadline(time.Now().Add(fc.writeTimeout))
	return writeFrame(fc.c, t, payload)
}

func (fc *framedConn) writeJSON(t frameType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fleet: marshal %s: %w", t, err)
	}
	return fc.write(t, payload)
}

// read returns the next frame, or an error once the peer has been
// silent for timeout.
func (fc *framedConn) read(timeout time.Duration) (frameType, []byte, error) {
	fc.c.SetReadDeadline(time.Now().Add(timeout))
	return readFrame(fc.c)
}

// Control-frame payloads.

type helloMsg struct {
	// Versions lists the protocol versions the gateway speaks.
	Versions []uint32 `json:"versions"`
	// GatewayID is the gateway's stable identity (reconnects replace
	// the previous connection for the same ID).
	GatewayID string `json:"gatewayId"`
	// ModelSHA is the SHA-256 of the bank the gateway currently
	// serves ("" for none); the service pushes the fleet version when
	// they differ.
	ModelSHA string `json:"modelSha,omitempty"`
}

type welcomeMsg struct {
	// Version is the negotiated protocol version.
	Version uint32 `json:"version"`
	// LeaseMillis is how long the registration lives without a
	// heartbeat (any frame refreshes it).
	LeaseMillis int64 `json:"leaseMillis"`
	// ModelSHA is the current fleet model version.
	ModelSHA string `json:"modelSha,omitempty"`
}

type batchAckMsg struct {
	// Accepted is how many fingerprints the service ingested.
	Accepted int `json:"accepted"`
	// Unknown is how many of them no central classifier accepted.
	Unknown int `json:"unknown"`
}

type modelAckMsg struct {
	SHA   string `json:"sha"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Base is the gateway's cumulative counters as they stood before it
	// applied the bank: where a canary's judgment window starts. Absent
	// from a gateway that predates the field.
	Base *counterPair `json:"base,omitempty"`
}

// counterPair is one reading of a gateway's cumulative assessment
// counters.
type counterPair struct {
	Assessed uint64 `json:"assessed"`
	Unknown  uint64 `json:"unknown"`
}

type errorMsg struct {
	Msg string `json:"msg"`
}

// negotiate picks the highest version both sides speak.
func negotiate(offered []uint32) (uint32, bool) {
	best := uint32(0)
	for _, v := range offered {
		for _, have := range supportedVersions {
			if v == have && v > best {
				best = v
			}
		}
	}
	return best, best != 0
}

// Binary fingerprint-batch codec. Layout:
//
//	u16 count
//	per fingerprint: one packed F (fingerprint.AppendF / DecodeF)
//
// Only F travels; F′ is re-derived on the receiving side so the two
// representations can never desynchronize (same rule, and same block,
// as the HTTP assess request). A payload is built in place: batchHeader
// bytes held back for the count, appendBatchFingerprint once per
// fingerprint, sealBatch when the count is known — Session does that as
// observations arrive, encodeBatch for a batch it is handed whole.

// batchHeader is the size of a batch payload's leading count.
const batchHeader = 2

// checkRows bounds one fingerprint's row count on the wire.
func checkRows(i, rows int) error {
	if rows == 0 || rows > maxFingerprintRows {
		return fmt.Errorf("fleet: fingerprint %d has %d rows (want 1..%d)", i, rows, maxFingerprintRows)
	}
	return nil
}

// appendBatchFingerprint appends fingerprint i of a batch to its
// payload; a fingerprint the wire cannot carry leaves dst as it was.
func appendBatchFingerprint(dst []byte, i int, fp fingerprint.Fingerprint) ([]byte, error) {
	if err := checkRows(i, len(fp.F)); err != nil {
		return dst, err
	}
	dst, _ = fingerprint.AppendF(dst, fp.F) // checkRows bounds it below the codec's limit
	return dst, nil
}

// sealBatch writes the count of a payload that holds count fingerprints
// behind its header.
func sealBatch(payload []byte, count int) {
	binary.BigEndian.PutUint16(payload, uint16(count))
}

// batchCount reads a sealed payload's count back.
func batchCount(payload []byte) int { return int(binary.BigEndian.Uint16(payload)) }

// encodeBatch returns the payload of a batch handed over whole.
func encodeBatch(fps []fingerprint.Fingerprint) ([]byte, error) {
	if len(fps) == 0 || len(fps) > maxBatchFingerprints {
		return nil, fmt.Errorf("fleet: batch of %d fingerprints (want 1..%d)", len(fps), maxBatchFingerprints)
	}
	payload := make([]byte, batchHeader)
	for i := range fps {
		var err error
		if payload, err = appendBatchFingerprint(payload, i, fps[i]); err != nil {
			return nil, err
		}
	}
	sealBatch(payload, len(fps))
	return payload, nil
}

// decodeBatch parses one ftBatch payload. Every length is validated
// before allocation and the payload must be consumed exactly.
func decodeBatch(p []byte) ([]fingerprint.Fingerprint, error) {
	if len(p) < batchHeader {
		return nil, errors.New("fleet: batch truncated before count")
	}
	count := batchCount(p)
	p = p[batchHeader:]
	if count == 0 || count > maxBatchFingerprints {
		return nil, fmt.Errorf("fleet: batch of %d fingerprints (want 1..%d)", count, maxBatchFingerprints)
	}
	fps := make([]fingerprint.Fingerprint, 0, count)
	for i := 0; i < count; i++ {
		f, rest, err := fingerprint.DecodeF(p)
		if err != nil {
			return nil, fmt.Errorf("fleet: fingerprint %d: %w", i, err)
		}
		if err := checkRows(i, len(f)); err != nil {
			return nil, err
		}
		fps = append(fps, fingerprint.FromPacked(f))
		p = rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("fleet: %d trailing bytes after batch", len(p))
	}
	return fps, nil
}

// encodeCounters packs cumulative per-gateway totals.
func encodeCounters(assessed, unknown uint64) []byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], assessed)
	binary.BigEndian.PutUint64(buf[8:], unknown)
	return buf[:]
}

func decodeCounters(p []byte) (assessed, unknown uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("fleet: counters payload is %d bytes, want 16", len(p))
	}
	return binary.BigEndian.Uint64(p[:8]), binary.BigEndian.Uint64(p[8:]), nil
}

// encodeModelPush packs a model blob behind its 32-byte SHA-256.
func encodeModelPush(sha [32]byte, model []byte) []byte {
	out := make([]byte, 0, 32+len(model))
	out = append(out, sha[:]...)
	return append(out, model...)
}

func decodeModelPush(p []byte) (sha [32]byte, model []byte, err error) {
	if len(p) < 32 {
		return sha, nil, fmt.Errorf("fleet: model push payload is %d bytes, want >=32", len(p))
	}
	copy(sha[:], p[:32])
	return sha, p[32:], nil
}
