package sdn

import (
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
type SwitchMetrics struct {
	forwarded *obs.Counter
	dropped   *obs.Counter
	packetIns *obs.Counter
	tableHits *obs.Counter
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
	packets := reg.CounterVec("sdn_switch_packets_total",
		"Packets processed by the switch, by enforcement action.", "action")
	evictions := reg.CounterVec("sdn_switch_flow_evictions_total",
		"Flows removed from the table: a device's 65th flow replacing its least recently used one, idle expiry, or its source's rule changing.", "reason")
	return &SwitchMetrics{
		forwarded: packets.With("forward"),
		dropped:   packets.With("drop"),
		packetIns: reg.Counter("sdn_switch_packet_ins_total",
			"Flow-table misses escalated to the controller."),
		tableHits: reg.Counter("sdn_switch_table_hits_total",
			"Packets switched in the fast path."),
		evictions: [3]*obs.Counter{evictions.With("bound"), evictions.With("idle"), evictions.With("invalidated")},
	}
}

// observe records one processed packet. Safe on nil.
func (m *SwitchMetrics) observe(act Action, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.tableHits.Inc()
	} else {
		m.packetIns.Inc()
	}
	if act == ActionForward {
		m.forwarded.Inc()
	} else {
		m.dropped.Inc()
	}
}

// evicted records n flows leaving the table — on the miss, sweep and
// invalidation paths, never per forwarded frame. Safe on nil.
func (m *SwitchMetrics) evicted(why, n int) {
	if m != nil && n > 0 {
		m.evictions[why].Add(uint64(n))
	}
}
