package sdn

import (
	"sync/atomic"

	"iotsentinel/internal/obs"
)

// SwitchMetrics instruments the data plane: per-action packet counters,
// the fast-path/slow-path split and why flows left the table. Attach
// via Switch.SetMetrics; a nil bundle disables instrumentation.
//
// Exported series:
//
//	sdn_switch_packets_total{action="forward|drop"}                  counter
//	sdn_switch_packet_ins_total                                      counter
//	sdn_switch_table_hits_total                                      counter
//	sdn_switch_flow_evictions_total{reason="bound|idle|invalidated"} counter
//
// The first three are the switch's own counts (Switch.Stats), read when
// the registry is written or snapshotted: a forwarded frame writes no
// series. They read the switch the bundle was last attached to, and 0
// before its first attachment. Detaching (SetMetrics(nil)) stops the
// eviction counts only: the traffic series keep reading that switch,
// whose counts never stop, so they stay equal to its Stats and never
// fall. NewSwitchMetrics again on the same registry takes the traffic
// series over: from then on they read the new bundle's switch, and the
// two bundles add to one eviction series.
type SwitchMetrics struct {
	sw        atomic.Pointer[Switch]
	evictions [3]*obs.Counter
}

// Why a flow left the table, indexing evictions. A device that keeps
// hitting evictBound — more than 64 live flows — is scanning.
const (
	evictBound = iota
	evictIdle
	evictInvalidated
)

// NewSwitchMetrics registers the switch metric family on reg.
func NewSwitchMetrics(reg *obs.Registry) *SwitchMetrics {
	m := &SwitchMetrics{}
	count := func(of func(SwitchStats) uint64) func() uint64 {
		return func() uint64 {
			if sw := m.sw.Load(); sw != nil {
				return of(sw.Stats())
			}
			return 0
		}
	}
	packets := reg.CounterFuncVec("sdn_switch_packets_total",
		"Packets processed by the switch, by enforcement action.", "action")
	packets.Func(count(func(s SwitchStats) uint64 { return s.Forwarded }), "forward")
	packets.Func(count(func(s SwitchStats) uint64 { return s.Dropped }), "drop")
	reg.CounterFunc("sdn_switch_packet_ins_total",
		"Flow-table misses escalated to the controller.",
		count(func(s SwitchStats) uint64 { return s.PacketIns }))
	reg.CounterFunc("sdn_switch_table_hits_total",
		"Packets switched in the fast path.",
		count(func(s SwitchStats) uint64 { return s.TableHits }))
	evictions := reg.CounterVec("sdn_switch_flow_evictions_total",
		"Flows removed from the table: a device's 65th flow replacing its least recently used one, idle expiry, or its source's rule changing.", "reason")
	m.evictions = [3]*obs.Counter{evictions.With("bound"), evictions.With("idle"), evictions.With("invalidated")}
	return m
}

// evicted records n flows leaving the table — on the miss, sweep and
// invalidation paths, never per forwarded frame. Safe on nil.
func (m *SwitchMetrics) evicted(why, n int) {
	if m != nil && n > 0 {
		m.evictions[why].Add(uint64(n))
	}
}
