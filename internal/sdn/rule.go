// Package sdn implements the enforcement substrate of Sect. V: an Open
// vSwitch–style software switch with a flow table, a Floodlight-style
// controller that installs per-flow entries, and the hash-indexed
// enforcement-rule cache (Fig 2) the Security Gateway uses to map each
// device to its isolation level.
package sdn

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"iotsentinel/internal/packet"
)

// IsolationLevel is the network access class assigned to a device
// (Fig 3 of the paper).
type IsolationLevel int

// Isolation levels. Strict is the zero-value-adjacent safest default
// for unknown devices.
const (
	// Strict allows communication only with devices inside the
	// untrusted overlay; no Internet access.
	Strict IsolationLevel = iota + 1
	// Restricted additionally allows a limited set of remote
	// destinations (e.g. the vendor's cloud service).
	Restricted
	// Trusted allows communication with the trusted overlay and
	// unrestricted Internet access.
	Trusted
)

// String returns the lowercase level name.
func (l IsolationLevel) String() string {
	switch l {
	case Strict:
		return "strict"
	case Restricted:
		return "restricted"
	case Trusted:
		return "trusted"
	default:
		return fmt.Sprintf("isolation(%d)", int(l))
	}
}

// EnforcementRule is the per-device policy of Fig 2: a device MAC, its
// isolation level, and — for Restricted — the permitted remote
// addresses through which the device reaches its cloud service.
type EnforcementRule struct {
	DeviceMAC    packet.MAC
	Level        IsolationLevel
	PermittedIPs []netip.Addr
	// DeviceType records the identified type for operator display.
	DeviceType string

	// version is the put that stored this copy in a RuleCache (0: none).
	version uint64
}

// versionOf is r's version, 0 for no rule.
func versionOf(r *EnforcementRule) uint64 {
	if r == nil {
		return 0
	}
	return r.version
}

// Permits reports whether the rule allows the device to reach the
// given remote address.
func (r *EnforcementRule) Permits(addr netip.Addr) bool {
	for _, a := range r.PermittedIPs {
		if a == addr {
			return true
		}
	}
	return false
}

// approxRuleBytes estimates the cache memory footprint of one rule:
// struct, hash-bucket overhead, and permitted-IP storage.
func approxRuleBytes(r *EnforcementRule) int {
	const base = 96 // struct + map bucket share
	return base + len(r.PermittedIPs)*24 + len(r.DeviceType)
}

// RuleCache is the hash-table enforcement-rule store of Sect. V: O(1)
// lookup by device MAC so filtering latency stays flat as the rule set
// grows. Fig 2's hash index is the map's own, over the MAC word
// (packet.MACWord), so two MACs whose hashes collide still hold a rule
// each; no hash value is kept beside the rule. It keeps memory
// accounting for the Fig 6c experiment and removes the rules of
// departed devices.
type RuleCache struct {
	mu    sync.RWMutex
	rules map[packet.MACWord]*EnforcementRule
	bytes int
	// puts numbers the rules Put stores, from 1: a stored rule's version,
	// by which the flow table tells whether a device's rule changed.
	puts uint64
	// hits/misses support cache instrumentation. They are atomic so
	// that a lookup takes only the read lock.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewRuleCache returns an empty cache.
func NewRuleCache() *RuleCache {
	return &RuleCache{rules: make(map[packet.MACWord]*EnforcementRule)}
}

// Put inserts or replaces the rule for its device MAC. It stores a copy,
// of a version no earlier put had.
func (c *RuleCache) Put(r *EnforcementRule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := r.DeviceMAC.Word()
	if old, ok := c.rules[key]; ok {
		c.bytes -= approxRuleBytes(old)
	}
	cp := *r
	cp.PermittedIPs = append([]netip.Addr(nil), r.PermittedIPs...)
	c.puts++
	cp.version = c.puts
	c.rules[key] = &cp
	c.bytes += approxRuleBytes(&cp)
}

// Get returns the rule for a device MAC, if present.
func (c *RuleCache) Get(mac packet.MAC) (*EnforcementRule, bool) {
	c.mu.RLock()
	r, ok := c.rules[mac.Word()]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

// peek is the version of mac's rule (0: none), for the flow table: no
// hit/miss accounting, so the read lock does. It is called holding a port
// stripe; nothing takes a stripe while holding c.mu.
func (c *RuleCache) peek(mac packet.MAC) uint64 {
	c.mu.RLock()
	v := versionOf(c.rules[mac.Word()])
	c.mu.RUnlock()
	return v
}

// Remove deletes the rule for a device that left the network.
func (c *RuleCache) Remove(mac packet.MAC) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := mac.Word()
	r, ok := c.rules[key]
	if !ok {
		return false
	}
	c.bytes -= approxRuleBytes(r)
	delete(c.rules, key)
	return true
}

// Len returns the number of cached rules.
func (c *RuleCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rules)
}

// ApproxBytes returns the estimated memory footprint of the cache,
// used by the Fig 6c memory-vs-rules experiment.
func (c *RuleCache) ApproxBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Stats returns cumulative lookup hits and misses.
func (c *RuleCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Rules returns a snapshot of all rules sorted by device MAC.
func (c *RuleCache) Rules() []*EnforcementRule {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*EnforcementRule, 0, len(c.rules))
	for _, r := range c.rules {
		cp := *r
		out = append(out, &cp)
	}
	slices.SortFunc(out, func(a, b *EnforcementRule) int { return a.DeviceMAC.Compare(b.DeviceMAC) })
	return out
}

// Digest returns an order-independent FNV-1a digest of the full rule
// table — MACs, levels, permitted IPs, and device types. Two caches
// with the same digest enforce identically; the crash-recovery tests
// use it to prove a recovered gateway reconciled the exact pre-crash
// enforcement state.
func (c *RuleCache) Digest() uint64 {
	rules := c.Rules() // sorted by MAC
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	for _, r := range rules {
		_, _ = h.Write(r.DeviceMAC[:])
		u64(uint64(r.Level))
		u64(uint64(len(r.PermittedIPs)))
		for _, ip := range r.PermittedIPs {
			b, _ := ip.MarshalBinary()
			_, _ = h.Write(b)
		}
		_, _ = h.Write([]byte(r.DeviceType))
	}
	return h.Sum64()
}
