package core

import (
	"sync"

	"iotsentinel/internal/fingerprint"
)

// IdentifyCache is the identifier's two-level memo, each level keyed by
// exactly what the stage it spares reads.
//
// The first level is a bounded LRU of whole identification results
// keyed by the canonical fingerprint hash. IoT devices replay
// near-identical setup sequences — the same firmware walks the same
// DHCP/DNS/NTP/cloud choreography on every power cycle — so a gateway
// that has already identified one probe can answer the replay without
// touching the classifier bank at all.
//
// The second level maps a fingerprint's head (fingerprint.Head: the
// first 12 unique symbols, all the forests read of a probe) to the
// bank's accept set. Captures of one device mostly differ after their
// head, so a probe that misses the first level usually finds its accept
// set here and pays only for discrimination, which reads all of F and
// always runs. The key is the head itself, not a hash of it: no
// collision can hand one device another's accept set.
//
// Cached answers are bit-identical to uncached ones in every semantic
// field (Type, Matches, Scores, Discriminated, EditDistances): the
// first-level key covers the full fingerprint (see
// fingerprint.CanonicalKey), results and accept sets are copied in and
// out so callers can never mutate or alias a stored one, and the
// identifier purges both levels whenever the bank changes (AddType).
// Only the stage timings differ — a first-level hit reports zero
// ClassifyTime/DiscriminateTime, which is also the honest measurement.
//
// The cache is safe for concurrent use. Lookups and inserts take one
// short mutex hold; the heavy work (hashing the probe) happens outside
// the lock.
type IdentifyCache struct {
	mu  sync.Mutex
	cap int
	// The first level: at most cap slots, linked from the most recently
	// used (mru) to the least (lru); -1 ends the list. An evicted slot is
	// reused, containers and all, by the entry that evicted it.
	index    map[fingerprint.Key]int32
	slots    []cacheSlot
	mru, lru int32
	hits     uint64
	misses   uint64

	// heads maps a head to its slot in accepts; slot i is the words
	// accepts[i*words:(i+1)*words], one bit per bank index. At most cap
	// heads are held. Slots are dense: an evicted head's slot goes to
	// the head that evicted it.
	heads      map[fingerprint.Head]uint32
	accepts    []uint64
	words      int
	headHits   uint64
	headMisses uint64
}

type cacheSlot struct {
	key        fingerprint.Key
	res        Result
	prev, next int32 // toward mru, toward lru
}

// DefaultCacheSize is the entry bound selected by NewIdentifyCache when
// given a non-positive capacity.
const DefaultCacheSize = 4096

// NewIdentifyCache returns an empty cache bounded to capacity entries
// (non-positive selects DefaultCacheSize).
func NewIdentifyCache(capacity int) *IdentifyCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &IdentifyCache{
		cap:   capacity,
		index: make(map[fingerprint.Key]int32, capacity),
		slots: make([]cacheSlot, 0, capacity),
		mru:   -1,
		lru:   -1,
		heads: make(map[fingerprint.Head]uint32),
	}
}

// getHead copies the accept set memoized for head into dst and reports
// whether there was one. An accept set of another width than dst was
// stored for another bank and is never returned.
func (c *IdentifyCache) getHead(head *fingerprint.Head, dst []uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.heads[*head]
	if !ok || c.words != len(dst) {
		c.headMisses++
		return false
	}
	c.headHits++
	copy(dst, c.accepts[int(slot)*c.words:])
	return true
}

// putHead memoizes a copy of accepted as the accept set of head. When
// the table is full an arbitrary head makes room: heads are far fewer
// than fingerprints, so the bound exists to cap memory, not to rank
// entries.
func (c *IdentifyCache) putHead(head *fingerprint.Head, accepted []uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.words != len(accepted) {
		// The first accept set after a purge fixes the width; one of a
		// different width later means the cache changed banks without
		// one, and nothing stored for the old bank may be served.
		c.purgeHeadsLocked()
		c.words = len(accepted)
	}
	slot, ok := c.heads[*head]
	if !ok {
		if len(c.heads) < c.cap {
			slot = uint32(len(c.heads))
			c.accepts = append(c.accepts, accepted...)
		} else {
			for victim, s := range c.heads {
				delete(c.heads, victim)
				slot = s
				break
			}
		}
		c.heads[*head] = slot
	}
	copy(c.accepts[int(slot)*c.words:], accepted)
}

func (c *IdentifyCache) purgeHeadsLocked() {
	clear(c.heads)
	c.accepts = c.accepts[:0]
	c.words = 0
}

// get returns a deep copy of the cached result for key, if present.
func (c *IdentifyCache) get(key fingerprint.Key) (Result, bool) {
	var res Result
	ok := c.getInto(key, &res)
	return res, ok
}

// getInto copies the cached result for key into *res, reusing res's
// Matches backing array and Scores map — the zero-allocation variant of
// get for steady-state callers. It reports whether key was present.
func (c *IdentifyCache) getInto(key fingerprint.Key, res *Result) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		c.misses++
		return false
	}
	c.hits++
	c.moveToFront(i)
	copyResultInto(&c.slots[i].res, res)
	return true
}

// put stores a deep copy of res under key, evicting the least recently
// used entry when the cache is full.
func (c *IdentifyCache) put(key fingerprint.Key, res Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	switch {
	case ok:
		c.moveToFront(i)
	case len(c.slots) < c.cap:
		i = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot{key: key, prev: -1, next: -1})
		c.index[key] = i
		c.pushFront(i)
	default:
		i = c.lru
		delete(c.index, c.slots[i].key)
		c.slots[i].key = key
		c.index[key] = i
		c.moveToFront(i)
	}
	stored := &c.slots[i].res
	copyResultInto(&res, stored)
	// Timings are run-dependent measurements, not part of the answer;
	// zero them so a hit cannot masquerade as classifier work.
	stored.ClassifyTime = 0
	stored.DiscriminateTime = 0
}

func (c *IdentifyCache) moveToFront(i int32) {
	if c.mru == i {
		return
	}
	s := &c.slots[i]
	c.slots[s.prev].next = s.next
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.lru = s.prev
	}
	c.pushFront(i)
}

func (c *IdentifyCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.mru
	if c.mru >= 0 {
		c.slots[c.mru].prev = i
	} else {
		c.lru = i
	}
	c.mru = i
}

// Purge drops every entry of both levels; called when the classifier
// bank changes so a stale answer or accept set can never outlive the
// model that produced it.
func (c *IdentifyCache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.index)
	c.slots = c.slots[:0]
	c.mru, c.lru = -1, -1
	c.purgeHeadsLocked()
}

// Len returns the current first-level (full-key) entry count.
func (c *IdentifyCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Stats returns the cumulative first-level (full-key) hit and miss
// counts.
func (c *IdentifyCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HeadStats returns the cumulative head-memo hit and miss counts. The
// memo is consulted only after a first-level miss, so hits+misses here
// equals Stats' misses.
func (c *IdentifyCache) HeadStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.headHits, c.headMisses
}

// copyResultInto deep-copies src into dst, reusing dst's Matches
// backing array and Scores map where possible. An empty src.Matches or
// src.Scores leaves a nil one in dst nil, allocating nothing: a stored
// undiscriminated result holds nil Scores, the answer of a fresh
// Identify. A reused dst keeps its (emptied) containers, which callers
// must treat as equivalent.
func copyResultInto(src, dst *Result) {
	dst.Type = src.Type
	dst.Discriminated = src.Discriminated
	dst.EditDistances = src.EditDistances
	dst.ClassifyTime = src.ClassifyTime
	dst.DiscriminateTime = src.DiscriminateTime
	if len(src.Matches) > 0 || dst.Matches != nil {
		dst.Matches = append(dst.Matches[:0], src.Matches...)
	}
	if len(src.Scores) == 0 && dst.Scores == nil {
		return
	}
	if dst.Scores == nil {
		dst.Scores = make(map[TypeID]float64, len(src.Scores))
	} else {
		clear(dst.Scores)
	}
	for t, s := range src.Scores {
		dst.Scores[t] = s
	}
}
