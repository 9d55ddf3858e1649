package sdn

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"iotsentinel/internal/packet"
)

// scanTable is the retired flow table — one map keyed by the whole
// FlowKey, every per-MAC operation a full scan — kept as the oracle for
// the per-port one, with the same bound of portFlows flows a source.
type scanTable struct {
	entries     map[packet.FlowKey]*FlowEntry
	idleTimeout time.Duration
}

// install reports whether the bound evicted a flow to make room.
func (t *scanTable) install(key packet.FlowKey, action Action, now time.Time) (bound bool) {
	if _, exists := t.entries[key]; !exists {
		var lruKey packet.FlowKey
		var lru *FlowEntry
		n := 0
		for k, e := range t.entries {
			if k.SrcMAC != key.SrcMAC {
				continue
			}
			n++
			if lru == nil || e.LastUsed.Before(lru.LastUsed) {
				lruKey, lru = k, e
			}
		}
		if bound = n >= portFlows; bound {
			delete(t.entries, lruKey)
		}
	}
	t.entries[key] = &FlowEntry{Key: key, Action: action, LastUsed: now}
	return bound
}

func (t *scanTable) match(key packet.FlowKey, _ int, now time.Time) (Action, bool) {
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
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

// removeByMAC evicts the flows mac sources and, with towards, those
// addressed to it as well.
func (t *scanTable) removeByMAC(mac packet.MAC, towards bool) int {
	removed := 0
	for k := range t.entries {
		if k.SrcMAC == mac || towards && k.DstMAC == mac {
			delete(t.entries, k)
			removed++
		}
	}
	return removed
}

// TestFlowTableMatchesScanningOracle drives the per-port table and the
// scanning oracle through one seeded operation sequence — installs in
// both directions between a handful of MACs (so self-flows occur),
// matches that reorder the LRU, idle expiry and removal by source — and
// requires identical return values and identical contents after every
// step. The second configuration has few sources, a wide key space and
// rare removals, so that ports sit at their bound and evict.
// Every operation carries its own timestamp: the LRU victim is then
// unique, which map iteration order would otherwise decide.
func TestFlowTableMatchesScanningOracle(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		idle      time.Duration
		macs      int
		ports     int
		removeIn  int // one step in removeIn removes by MAC
		wantBound bool
	}{
		{"idle", 40 * time.Millisecond, 6, 5, 10, false},
		{"bound", time.Minute, 2, 60, 400, true},
	} {
		rng := rand.New(rand.NewSource(int64(7 + cfg.macs)))
		macs := make([]packet.MAC, cfg.macs)
		for i := range macs {
			macs[i] = packet.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}
		}
		key := func() packet.FlowKey {
			return packet.FlowKey{
				SrcMAC:  macs[rng.Intn(len(macs))],
				DstMAC:  macs[rng.Intn(len(macs))],
				SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(4))}),
				DstPort: uint16(rng.Intn(cfg.ports)),
			}
		}
		got := NewFlowTable(cfg.idle)
		want := &scanTable{entries: make(map[packet.FlowKey]*FlowEntry), idleTimeout: cfg.idle}
		now := time.Unix(1_700_000_000, 0)
		bound := 0
		for step := 0; step < 4000; step++ {
			now = now.Add(time.Duration(1+rng.Intn(3)) * time.Millisecond)
			switch op := rng.Intn(10); {
			case rng.Intn(cfg.removeIn) == 0:
				mac := macs[rng.Intn(len(macs))]
				if g, w := got.RemoveByMAC(mac), want.removeByMAC(mac, false); g != w {
					t.Fatalf("%s step %d: RemoveByMAC(%v) = %d, oracle %d", cfg.name, step, mac, g, w)
				}
			case op < 5:
				k, a := key(), Action(1+rng.Intn(2))
				got.Install(k, a, now)
				if want.install(k, a, now) {
					bound++
				}
			case op < 9:
				k := key()
				ga, gok := got.Match(k, 100, now)
				wa, wok := want.match(k, 100, now)
				if ga != wa || gok != wok {
					t.Fatalf("%s step %d: Match = %v,%v, oracle %v,%v", cfg.name, step, ga, gok, wa, wok)
				}
			default:
				if g, w := got.Expire(now), want.expire(now); g != w {
					t.Fatalf("%s step %d: Expire = %d, oracle %d", cfg.name, step, g, w)
				}
			}
			if got.Len() != len(want.entries) {
				t.Fatalf("%s step %d: Len = %d, oracle %d", cfg.name, step, got.Len(), len(want.entries))
			}
			for k, we := range want.entries {
				if ge, ok := got.Entry(k); !ok || ge != *we {
					t.Fatalf("%s step %d: entry %+v = %+v (present %v), oracle %+v", cfg.name, step, k, ge, ok, *we)
				}
			}
		}
		if (bound > 0) != cfg.wantBound {
			t.Errorf("%s: %d installs evicted at the bound", cfg.name, bound)
		}
	}
}

// refSwitch is the switch as it was over the retired table: one map,
// and an invalidation that eagerly evicts every flow naming the device
// in either direction.
type refSwitch struct {
	table              scanTable
	ctrl               *Controller
	forwarded, dropped uint64
}

func (s *refSwitch) process(pk *packet.Packet, now time.Time) Action {
	key := pk.Flow()
	act, hit := s.table.match(key, pk.Size, now)
	if !hit {
		act = s.ctrl.PacketIn(key, now).Action
		s.table.install(key, act, now)
	}
	if act == ActionForward {
		s.forwarded++
	} else {
		s.dropped++
	}
	return act
}

// TestSwitchMatchesScanningOracle drives the switch and refSwitch, each
// over a controller and rule cache of its own, through one seeded
// sequence of device-to-device, Internet and broadcast frames, rule
// puts and removals each followed by InvalidateDevice, and idle sweeps.
// Every frame must get the same action from both, and the switch — whose
// flows towards a device are re-decided only once that device's rule
// has actually changed — may never ask its controller more often.
func TestSwitchMatchesScanningOracle(t *testing.T) {
	const idle = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(11))
	newCtrl := func() *Controller {
		c := NewController(NewRuleCache(), netip.Prefix{})
		c.AddInfrastructure(gwMAC)
		return c
	}
	sw := NewSwitch(newCtrl(), idle)
	ref := &refSwitch{table: scanTable{entries: make(map[packet.FlowKey]*FlowEntry), idleTimeout: idle}, ctrl: newCtrl()}

	type dev struct {
		mac packet.MAC
		ip  netip.Addr
	}
	devs := make([]dev, 8)
	for i := range devs {
		devs[i] = dev{packet.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}, netip.AddrFrom4([4]byte{192, 168, 1, byte(10 + i)})}
	}
	remotes := []netip.Addr{cloud, other}
	now := time.Unix(1_700_000_000, 0)
	for step := 0; step < 20000; step++ {
		now = now.Add(time.Duration(1+rng.Intn(3)) * time.Millisecond)
		d := devs[rng.Intn(len(devs))]
		switch op := rng.Intn(20); {
		case op < 16:
			var pk *packet.Packet
			sport := uint16(40000 + rng.Intn(3))
			switch kind := rng.Intn(8); {
			case kind < 4:
				peer := devs[rng.Intn(len(devs))]
				pk = packet.NewTCPSyn(d.mac, peer.mac, d.ip, peer.ip, sport, 443)
			case kind < 7:
				pk = packet.NewTCPSyn(d.mac, gwMAC, d.ip, remotes[rng.Intn(len(remotes))], sport, 443)
			default:
				pk = packet.NewARP(d.mac, d.ip, devs[rng.Intn(len(devs))].ip)
			}
			if g, w := sw.Process(pk, now), ref.process(pk, now); g != w {
				t.Fatalf("step %d: %v -> %v (%v): switch %v, oracle %v", step, pk.SrcMAC, pk.DstMAC, pk.DstIP, g, w)
			}
		case op < 19:
			if rng.Intn(4) == 0 {
				sw.Controller().Rules().Remove(d.mac)
				ref.ctrl.Rules().Remove(d.mac)
			} else {
				r := &EnforcementRule{DeviceMAC: d.mac, Level: IsolationLevel(1 + rng.Intn(3))}
				if r.Level == Restricted {
					r.PermittedIPs = []netip.Addr{cloud}
				}
				sw.Controller().Rules().Put(r)
				ref.ctrl.Rules().Put(r)
			}
			sw.InvalidateDevice(d.mac)
			ref.table.removeByMAC(d.mac, true)
		default:
			sw.Table().Expire(now)
			ref.table.expire(now)
		}
		st := sw.Stats()
		if st.Forwarded != ref.forwarded || st.Dropped != ref.dropped {
			t.Fatalf("step %d: switch forwarded %d dropped %d, oracle %d and %d", step, st.Forwarded, st.Dropped, ref.forwarded, ref.dropped)
		}
		if st.PacketIns > ref.ctrl.PacketIns() {
			t.Fatalf("step %d: switch made %d packet-ins, oracle %d", step, st.PacketIns, ref.ctrl.PacketIns())
		}
	}
	st := sw.Stats()
	if st.PacketIns == 0 || st.TableHits == 0 || st.Dropped == 0 || st.Forwarded == 0 {
		t.Errorf("sequence exercised too little: %+v", st)
	}
	t.Logf("%d frames: %d packet-ins, oracle %d", st.Forwarded+st.Dropped, st.PacketIns, ref.ctrl.PacketIns())
}
