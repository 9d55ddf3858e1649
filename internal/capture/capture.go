// Package capture is the gateway's live-ingestion front end: the seam
// between "frames arrive from somewhere" and the sharded HandlePacket
// data path. The paper's Security Gateway sits inline on the home
// network and observes device setup traffic as it happens. Frames have
// one way in: a producer injects them into a Fanout.
//
//   - Ring / Fanout: an AF_PACKET-TPACKET_V3-style block ring buffer —
//     frames are appended into fixed-size blocks whose ownership flips
//     between the producer ("kernel") and consumer ("user space") with
//     a single atomic word, so the reader walks whole blocks of frames
//     without locks and a slow reader sheds load by dropping at the
//     producer, never by blocking it. A Fanout stripes frames across
//     one ring per reader by the source MAC's partition — the one the
//     gateway's shards and the switch's stripes split by, at finer
//     grain — so every device's packets stay in order on one reader
//     while readers scale across CPUs (PACKET_FANOUT_HASH semantics).
//   - Replay is such a producer for classic pcap / pcapng files, so a
//     recorded trace takes exactly the path live traffic takes.
//
// A Pump (Attach) owns the reader side: one goroutine per ring decodes
// frames in place out of the ring block and hands (timestamp, packet)
// pairs to the gateway — each valid until the handler returns (see
// Handler). The conformance suite proves a replayed file and direct
// injection produce bit-identical fingerprints and device states.
package capture

import (
	"errors"
	"time"
)

// Frame is one captured link-layer frame with its capture timestamp.
//
// Data returned by Ring.Recv is valid only until the next Recv call on
// that ring (zero-copy out of the block buffer, like an AF_PACKET
// mmap); decode or copy before receiving again.
type Frame struct {
	Time time.Time
	Data []byte
}

// ErrClosed is returned by Inject after the ring (or fanout) has been
// closed.
var ErrClosed = errors.New("capture: ring closed")
