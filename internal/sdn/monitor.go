package sdn

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"iotsentinel/internal/packet"
)

// DeviceStats aggregates per-device traffic counters maintained by the
// controller's monitoring module (Sect. V: "network monitoring tasks").
type DeviceStats struct {
	MAC       packet.MAC
	Packets   uint64
	Bytes     uint64
	Dropped   uint64
	FirstSeen time.Time
	LastSeen  time.Time
	// Destinations counts distinct remote endpoints contacted.
	Destinations int
}

// TrafficMonitor tracks per-source-device traffic through the switch.
// All methods are safe for concurrent use.
type TrafficMonitor struct {
	mu    sync.Mutex
	stats map[packet.MAC]*deviceAccum
}

type deviceAccum struct {
	DeviceStats

	// dsts is keyed by the address value, not its string form:
	// netip.Addr is comparable, and rendering a string per observed
	// packet was the one allocation left on the assessed-device data
	// path.
	dsts map[netip.Addr]struct{}
}

// NewTrafficMonitor returns an empty monitor.
func NewTrafficMonitor() *TrafficMonitor {
	return &TrafficMonitor{stats: make(map[packet.MAC]*deviceAccum)}
}

// Observe records one processed packet and its verdict.
func (m *TrafficMonitor) Observe(pk *packet.Packet, action Action, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	acc, ok := m.stats[pk.SrcMAC]
	if !ok {
		acc = &deviceAccum{
			DeviceStats: DeviceStats{MAC: pk.SrcMAC, FirstSeen: now},
			dsts:        make(map[netip.Addr]struct{}),
		}
		m.stats[pk.SrcMAC] = acc
	}
	acc.Packets++
	acc.Bytes += uint64(pk.Size)
	acc.LastSeen = now
	if action == ActionDrop {
		acc.Dropped++
	}
	if pk.DstIP.IsValid() {
		// Look up first: almost every frame repeats a destination the
		// device already has, and a map read is cheaper than an assign.
		if _, seen := acc.dsts[pk.DstIP]; !seen {
			acc.dsts[pk.DstIP] = struct{}{}
			acc.Destinations = len(acc.dsts)
		}
	}
}

// Device returns the stats for one device.
func (m *TrafficMonitor) Device(mac packet.MAC) (DeviceStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	acc, ok := m.stats[mac]
	if !ok {
		return DeviceStats{}, false
	}
	return acc.DeviceStats, true
}

// TopTalkers returns up to n devices ordered by descending byte count.
func (m *TrafficMonitor) TopTalkers(n int) []DeviceStats {
	m.mu.Lock()
	out := make([]DeviceStats, 0, len(m.stats))
	for _, acc := range m.stats {
		out = append(out, acc.DeviceStats)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].MAC.Compare(out[j].MAC) < 0
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Forget drops a device's counters (e.g. after RemoveDevice).
func (m *TrafficMonitor) Forget(mac packet.MAC) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.stats, mac)
}

// Len returns the number of tracked devices.
func (m *TrafficMonitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.stats)
}

// SetMonitor attaches a traffic monitor to the switch; every processed
// packet is observed. Pass nil to detach.
func (s *Switch) SetMonitor(m *TrafficMonitor) { s.monitor.Store(m) }
