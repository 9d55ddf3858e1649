// Package capture is the gateway's live-ingestion front end: the seam
// between "frames arrive from somewhere" and the sharded HandlePacket
// data path. The paper's Security Gateway sits inline on the home
// network and observes device setup traffic as it happens; this package
// models that position with a small Source interface and three
// interchangeable implementations:
//
//   - Ring / Fanout: an AF_PACKET-TPACKET_V3-style block ring buffer —
//     frames are appended into fixed-size blocks whose ownership flips
//     between the producer ("kernel") and consumer ("user space") with
//     a single atomic word, so the reader walks whole blocks of frames
//     without locks and a slow reader sheds load by dropping at the
//     producer, never by blocking it. A Fanout stripes frames across
//     one ring per reader by an FNV-1a hash of the source MAC — the
//     same hash the gateway shards device state by — so every device's
//     packets stay in order on one reader while readers scale across
//     CPUs (PACKET_FANOUT_HASH semantics).
//   - PcapSource: streams records out of classic pcap / pcapng files,
//     so recorded traces replay through exactly the code path live
//     traffic takes.
//   - ChanSource: a portable channel-backed fallback, and the adapter
//     the netsim lab's mirror tap feeds (see netsim.Tap).
//
// A Pump owns the reader side: per-CPU goroutines pull frames from
// their source, decode them in place out of the ring block, and hand
// (timestamp, packet) pairs to the gateway — each valid until the
// handler returns (see Handler). The conformance suite proves the three delivery paths
// produce bit-identical fingerprints and device states.
package capture

import (
	"errors"
	"time"
)

// Frame is one captured link-layer frame with its capture timestamp.
//
// Data returned by Ring.Recv is valid only until the next Recv call on
// that ring (zero-copy out of the block buffer, like an AF_PACKET
// mmap); decode or copy before receiving again. PcapSource and
// ChanSource hand out owned slices.
type Frame struct {
	Time time.Time
	Data []byte
}

// Source is one stream of captured frames. Recv blocks until a frame
// is available and returns io.EOF once the source is closed and
// drained. Implementations are safe for a single receiving goroutine;
// use a Fanout to spread one traffic stream across several readers.
type Source interface {
	Recv() (Frame, error)
	Close() error
}

// ErrClosed is returned by producer-side operations (Inject, Send)
// after the source has been closed.
var ErrClosed = errors.New("capture: source closed")

// macHash is 32-bit FNV-1a over the frame's source MAC (Ethernet
// bytes 6..12) — deliberately the same function the gateway stripes
// device state with, so a fanout reader and the shard it feeds see
// every device's packets in arrival order.
func macHash(frame []byte) uint32 {
	h := uint32(2166136261)
	if len(frame) < 12 {
		// Runt frame: hash what exists; the decoder will reject it.
		for _, b := range frame {
			h ^= uint32(b)
			h *= 16777619
		}
		return h
	}
	for _, b := range frame[6:12] {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}
