package sdn

import (
	"sync"
	"time"

	"iotsentinel/internal/packet"
)

// Action is what the switch does with packets of a flow.
type Action int

// Flow actions.
const (
	ActionDrop Action = iota + 1
	ActionForward
)

// String returns the lowercase action name.
func (a Action) String() string {
	if a == ActionForward {
		return "forward"
	}
	return "drop"
}

// FlowEntry is one installed micro-flow: an exact-match key plus the
// action the controller decided.
type FlowEntry struct {
	Key      packet.FlowKey
	Action   Action
	Packets  uint64
	Bytes    uint64
	Created  time.Time
	LastUsed time.Time

	// links chain the entry into the FlowTable's per-MAC lists: links[0]
	// in the list of Key.SrcMAC, links[1] in that of Key.DstMAC.
	links [2]flowLink
}

type flowLink struct{ prev, next *FlowEntry }

// side says which of e's links belongs to mac's list.
func (e *FlowEntry) side(mac packet.MAC) int {
	if e.Key.SrcMAC == mac {
		return 0
	}
	return 1
}

// FlowTable is the switch's exact-match flow table. All methods are
// safe for concurrent use.
type FlowTable struct {
	mu      sync.RWMutex
	entries map[packet.FlowKey]*FlowEntry
	// byMAC heads, per MAC, a doubly linked list threaded through the
	// installed entries that have it as source or destination, so
	// RemoveByMAC — run under the write lock on every join and removal
	// — walks only that device's flows instead of scanning the table.
	// The lists are intrusive (FlowEntry.links): keeping them in step
	// costs Install and remove two pointer splices each, no allocation.
	byMAC map[packet.MAC]*FlowEntry
	// IdleTimeout evicts entries not used for this long (checked by
	// Expire, driven by the caller's clock).
	IdleTimeout time.Duration
	// MaxFlows caps the table size, as hardware and OVS tables are
	// bounded; 0 means unbounded. When full, Install evicts the
	// least-recently-used entry.
	MaxFlows int
}

// NewFlowTable returns an empty table with the given idle timeout
// (non-positive selects 30 s, a common OpenFlow default).
func NewFlowTable(idleTimeout time.Duration) *FlowTable {
	if idleTimeout <= 0 {
		idleTimeout = 30 * time.Second
	}
	return &FlowTable{
		entries:     make(map[packet.FlowKey]*FlowEntry),
		byMAC:       make(map[packet.MAC]*FlowEntry),
		IdleTimeout: idleTimeout,
	}
}

// Install adds or replaces the entry for key, evicting the least-
// recently-used entry when the table is at MaxFlows capacity.
func (t *FlowTable) Install(key packet.FlowKey, action Action, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, exists := t.entries[key]; exists {
		t.remove(old)
	} else if t.MaxFlows > 0 && len(t.entries) >= t.MaxFlows {
		var lru *FlowEntry
		for _, e := range t.entries {
			if lru == nil || e.LastUsed.Before(lru.LastUsed) {
				lru = e
			}
		}
		t.remove(lru)
	}
	e := &FlowEntry{Key: key, Action: action, Created: now, LastUsed: now}
	t.entries[key] = e
	t.link(e, key.SrcMAC)
	if key.DstMAC != key.SrcMAC {
		t.link(e, key.DstMAC)
	}
}

// remove deletes an installed entry from the table and the per-MAC
// lists; the caller holds the write lock.
func (t *FlowTable) remove(e *FlowEntry) {
	delete(t.entries, e.Key)
	t.unlink(e, e.Key.SrcMAC)
	if e.Key.DstMAC != e.Key.SrcMAC {
		t.unlink(e, e.Key.DstMAC)
	}
}

// link pushes e onto the front of mac's list.
func (t *FlowTable) link(e *FlowEntry, mac packet.MAC) {
	head := t.byMAC[mac]
	e.links[e.side(mac)] = flowLink{next: head}
	if head != nil {
		head.links[head.side(mac)].prev = e
	}
	t.byMAC[mac] = e
}

// unlink splices e out of mac's list.
func (t *FlowTable) unlink(e *FlowEntry, mac packet.MAC) {
	l := e.links[e.side(mac)]
	switch {
	case l.prev != nil:
		l.prev.links[l.prev.side(mac)].next = l.next
	case l.next != nil:
		t.byMAC[mac] = l.next
	default:
		delete(t.byMAC, mac)
	}
	if l.next != nil {
		l.next.links[l.next.side(mac)].prev = l.prev
	}
}

// Match looks up the flow for key and, on a hit, updates its counters.
func (t *FlowTable) Match(key packet.FlowKey, size int, now time.Time) (Action, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
	e.Packets++
	e.Bytes += uint64(size)
	e.LastUsed = now
	return e.Action, true
}

// Expire removes entries idle longer than IdleTimeout and returns the
// number evicted.
func (t *FlowTable) Expire(now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	evicted := 0
	for _, e := range t.entries {
		if now.Sub(e.LastUsed) >= t.IdleTimeout {
			t.remove(e)
			evicted++
		}
	}
	return evicted
}

// RemoveByMAC evicts all flows involving the MAC (both directions),
// used when a device's isolation level changes.
func (t *FlowTable) RemoveByMAC(mac packet.MAC) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	for e := t.byMAC[mac]; e != nil; removed++ {
		next := e.links[e.side(mac)].next
		t.remove(e)
		e = next
	}
	return removed
}

// Len returns the number of installed flows.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Entry returns a copy of the entry for key, if installed.
func (t *FlowTable) Entry(key packet.FlowKey) (FlowEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[key]
	if !ok {
		return FlowEntry{}, false
	}
	return *e, true
}
