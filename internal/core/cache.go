package core

import (
	"sync"

	"iotsentinel/internal/fingerprint"
)

// IdentifyCache is the identifier's two-level memo, each level keyed by
// exactly what the stage it spares reads, and asked in the order the
// stages run.
//
// The head memo maps a fingerprint's head (fingerprint.Head: the first
// 12 unique symbols, all the forests read of a probe) to the bank's
// accept set. Every identification asks it first. Captures of one
// device mostly differ after their head, so a probe usually finds its
// accept set here and skips the classifier bank. With zero or one match
// the accept set is the whole answer. The key is the head itself, not a
// hash of it: no collision can hand one device another's accept set.
//
// The full-key level is a bounded LRU of the answers discrimination
// produced, keyed by the canonical fingerprint hash. Discrimination
// reads all of F, and only a probe that several classifiers accept
// runs it, so only such a probe computes the key and looks it up. IoT
// devices replay near-identical setup sequences — the same firmware
// walks the same DHCP/DNS/NTP/cloud choreography on every power cycle —
// so a replayed discriminated probe is answered here without computing
// an edit distance.
//
// Cached answers are bit-identical to uncached ones in every semantic
// field (Type, Matches, Scores, Discriminated, EditDistances): the
// full key covers the whole fingerprint (see fingerprint.CanonicalKey),
// results and accept sets are copied in and out so callers can never
// mutate or alias a stored one, and a cache serves one bank for its
// whole life: a bank never changes, and every runtime binding that
// attaches a cache makes a new one (see Identifier.ApplyRuntime), so no
// entry outlives the model that produced it. Only the stage timings differ —
// an answer from the full key reports zero DiscriminateTime, which is
// also the honest measurement.
//
// The cache is safe for concurrent use. Lookups and inserts take one
// short mutex hold; the heavy work (hashing the probe) happens outside
// the lock. Both levels grow as entries arrive, up to one capacity
// each.
type IdentifyCache struct {
	mu  sync.Mutex
	cap int
	// The full-key level: at most cap slots, linked from the most
	// recently used (mru) to the least (lru); -1 ends the list. An
	// evicted slot is reused, containers and all, by the entry that
	// evicted it.
	index    map[fingerprint.Key]int32
	slots    []cacheSlot
	mru, lru int32
	hits     uint64
	misses   uint64

	// heads maps a head to its slot in accepts; slot i is the words
	// accepts[i*w:(i+1)*w], one bit per bank index, w the bank's accept
	// set width. At most cap heads are held. Slots are dense: an evicted
	// head's slot goes to the head that evicted it.
	heads      map[fingerprint.Head]uint32
	accepts    []uint64
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
		index: make(map[fingerprint.Key]int32),
		mru:   -1,
		lru:   -1,
		heads: make(map[fingerprint.Head]uint32),
	}
}

// getHead copies the accept set memoized for head into dst and reports
// whether there was one.
func (c *IdentifyCache) getHead(head *fingerprint.Head, dst []uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.heads[*head]
	if !ok {
		c.headMisses++
		return false
	}
	c.headHits++
	copy(dst, c.accepts[int(slot)*len(dst):])
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
	copy(c.accepts[int(slot)*len(accepted):], accepted)
}

// get returns a deep copy of the cached result for key, if present.
func (c *IdentifyCache) get(key fingerprint.Key) (Result, bool) {
	var res Result
	ok := c.getInto(key, &res)
	return res, ok
}

// getInto copies the cached result for key into *res, reusing res's
// Matches backing array and Scores map — the zero-allocation variant of
// get for steady-state callers — and leaving res's timings alone. It
// reports whether key was present.
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
	copyResultInto(&res, &c.slots[i].res)
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

// Len returns the current full-key entry count: discriminated answers.
func (c *IdentifyCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Stats returns the cumulative full-key hit and miss counts. Only a
// probe that several classifiers accept looks its full key up.
func (c *IdentifyCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HeadStats returns the cumulative head-memo hit and miss counts. Every
// identification asks the memo first, so hits+misses here counts them
// all.
func (c *IdentifyCache) HeadStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.headHits, c.headMisses
}

// copyResultInto deep-copies the answer in src into dst, reusing dst's
// Matches backing array and Scores map where possible. The timings are
// not copied: they are run-dependent measurements, not part of the
// answer, so a stored one never carries any and a hit cannot
// masquerade as classifier work. An empty src.Matches or src.Scores
// leaves a nil one in dst nil, allocating nothing: a stored
// undiscriminated result holds nil Scores, the answer of a fresh
// Identify. A reused dst keeps its (emptied) containers, which callers
// must treat as equivalent.
func copyResultInto(src, dst *Result) {
	dst.Type = src.Type
	dst.Discriminated = src.Discriminated
	dst.EditDistances = src.EditDistances
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
