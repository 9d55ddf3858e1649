package sdn

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

// scanTable is the retired flow table, kept as the oracle for the
// MAC-indexed one: the same operations with RemoveByMAC as a full-table
// scan and no index to keep in step.
type scanTable struct {
	entries     map[packet.FlowKey]*FlowEntry
	idleTimeout time.Duration
	maxFlows    int
}

func (t *scanTable) install(key packet.FlowKey, action Action, now time.Time) {
	if _, exists := t.entries[key]; !exists && t.maxFlows > 0 && len(t.entries) >= t.maxFlows {
		var lruKey packet.FlowKey
		var lru *FlowEntry
		for k, e := range t.entries {
			if lru == nil || e.LastUsed.Before(lru.LastUsed) {
				lruKey, lru = k, e
			}
		}
		delete(t.entries, lruKey)
	}
	t.entries[key] = &FlowEntry{Key: key, Action: action, Created: now, LastUsed: now}
}

func (t *scanTable) match(key packet.FlowKey, size int, now time.Time) (Action, bool) {
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
	e.Packets++
	e.Bytes += uint64(size)
	e.LastUsed = now
	return e.Action, true
}

func (t *scanTable) expire(now time.Time) int {
	evicted := 0
	for k, e := range t.entries {
		if now.Sub(e.LastUsed) >= t.idleTimeout {
			delete(t.entries, k)
			evicted++
		}
	}
	return evicted
}

func (t *scanTable) removeByMAC(mac packet.MAC) int {
	removed := 0
	for k := range t.entries {
		if k.SrcMAC == mac || k.DstMAC == mac {
			delete(t.entries, k)
			removed++
		}
	}
	return removed
}

// TestFlowTableMatchesScanningOracle drives the indexed table and the
// scanning oracle through one seeded operation sequence — installs in
// both directions between a handful of MACs (so every MAC is source of
// some flows and destination of others, and self-flows occur), matches
// that reorder the LRU, capacity evictions, idle expiry and per-MAC
// removal — and requires identical return values, identical contents
// and per-MAC lists holding exactly the installed entries after every
// step.
// Every operation carries its own timestamp: the LRU victim is then
// unique, which map iteration order would otherwise decide.
func TestFlowTableMatchesScanningOracle(t *testing.T) {
	for _, maxFlows := range []int{0, 24} {
		rng := rand.New(rand.NewSource(int64(7 + maxFlows)))
		macs := make([]packet.MAC, 6)
		for i := range macs {
			macs[i] = packet.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}
		}
		key := func() packet.FlowKey {
			return packet.FlowKey{
				SrcMAC:  macs[rng.Intn(len(macs))],
				DstMAC:  macs[rng.Intn(len(macs))],
				SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(4))}),
				DstPort: uint16(rng.Intn(5)),
			}
		}
		got := NewFlowTable(40 * time.Millisecond)
		got.MaxFlows = maxFlows
		want := &scanTable{entries: make(map[packet.FlowKey]*FlowEntry), idleTimeout: 40 * time.Millisecond, maxFlows: maxFlows}
		now := time.Unix(1_700_000_000, 0)
		for step := 0; step < 4000; step++ {
			now = now.Add(time.Duration(1+rng.Intn(3)) * time.Millisecond)
			switch op := rng.Intn(10); {
			case op < 5:
				k, a := key(), Action(1+rng.Intn(2))
				got.Install(k, a, now)
				want.install(k, a, now)
			case op < 8:
				k := key()
				ga, gok := got.Match(k, 100, now)
				wa, wok := want.match(k, 100, now)
				if ga != wa || gok != wok {
					t.Fatalf("maxFlows %d step %d: Match = %v,%v, oracle %v,%v", maxFlows, step, ga, gok, wa, wok)
				}
			case op < 9:
				mac := macs[rng.Intn(len(macs))]
				if g, w := got.RemoveByMAC(mac), want.removeByMAC(mac); g != w {
					t.Fatalf("maxFlows %d step %d: RemoveByMAC(%v) = %d, oracle %d", maxFlows, step, mac, g, w)
				}
			default:
				if g, w := got.Expire(now), want.expire(now); g != w {
					t.Fatalf("maxFlows %d step %d: Expire = %d, oracle %d", maxFlows, step, g, w)
				}
			}
			if got.Len() != len(want.entries) {
				t.Fatalf("maxFlows %d step %d: Len = %d, oracle %d", maxFlows, step, got.Len(), len(want.entries))
			}
			for k, we := range want.entries {
				ge, ok := got.Entry(k)
				ge.links = [2]flowLink{}
				if !ok || ge != *we {
					t.Fatalf("maxFlows %d step %d: entry %+v = %+v (present %v), oracle %+v", maxFlows, step, k, ge, ok, *we)
				}
			}
			// Every MAC's list holds exactly the entries naming it, each
			// once, with prev pointers mirroring next.
			listed := 0
			for mac, head := range got.byMAC {
				var prev *FlowEntry
				for e := head; e != nil; e = e.links[e.side(mac)].next {
					if got.entries[e.Key] != e || (e.Key.SrcMAC != mac && e.Key.DstMAC != mac) {
						t.Fatalf("maxFlows %d step %d: list of %v holds stale or foreign entry %+v", maxFlows, step, mac, e.Key)
					}
					if e.links[e.side(mac)].prev != prev {
						t.Fatalf("maxFlows %d step %d: list of %v: broken prev link at %+v", maxFlows, step, mac, e.Key)
					}
					prev = e
					listed++
				}
				if prev == nil {
					t.Fatalf("maxFlows %d step %d: empty list left for %v", maxFlows, step, mac)
				}
			}
			expect := 0
			for k := range want.entries {
				expect++
				if k.SrcMAC != k.DstMAC {
					expect++
				}
			}
			if listed != expect {
				t.Fatalf("maxFlows %d step %d: lists hold %d references, installed entries account for %d", maxFlows, step, listed, expect)
			}
		}
	}
}
