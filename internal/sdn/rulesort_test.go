package sdn

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"iotsentinel/internal/packet"
	"iotsentinel/internal/testutil"
)

// thousandRules fills a cache with 1,000 seeded rules whose MACs differ
// in every byte position.
func thousandRules() *RuleCache {
	rng := rand.New(rand.NewSource(17))
	c := NewRuleCache()
	for i := 0; i < 1000; i++ {
		var mac packet.MAC
		rng.Read(mac[:])
		r := &EnforcementRule{DeviceMAC: mac, Level: IsolationLevel(1 + i%3), DeviceType: "T"}
		if r.Level == Restricted {
			r.PermittedIPs = []netip.Addr{netip.AddrFrom4([4]byte{52, 20, byte(i >> 8), byte(i)})}
		}
		c.Put(r)
	}
	return c
}

// TestRulesOrderAndDigestUnchanged: Rules sorts by the MAC's bytes, which
// is the order of the MAC's String form it used to format twice per
// comparison; the digest of a seeded 1,000-rule table is the value the
// String sort produced; and listing allocates per rule, not per
// comparison.
func TestRulesOrderAndDigestUnchanged(t *testing.T) {
	c := thousandRules()
	rules := c.Rules()
	if len(rules) != 1000 {
		t.Fatalf("%d rules, want 1000", len(rules))
	}
	if !sort.SliceIsSorted(rules, func(i, j int) bool {
		return rules[i].DeviceMAC.String() < rules[j].DeviceMAC.String()
	}) {
		t.Error("Rules is not in the order of the MACs' String forms")
	}
	const want = 0x1fa76620c9cfab6f
	if got := c.Digest(); got != want {
		t.Errorf("digest of the seeded table %#016x, want %#016x", got, uint64(want))
	}
	// One copy per rule, the slice, and sort.Slice's fixed few.
	testutil.AssertAllocs(t, "RuleCache.Rules", 1000+8, func() { _ = c.Rules() })
}
