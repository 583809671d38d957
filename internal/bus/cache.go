package bus

import "math"

// DefaultCacheSize bounds the equilibrium cache. Workload demands are
// piecewise-constant across phases, so the set of distinct request
// vectors a run presents is small (co-scheduled phase combinations);
// a few hundred entries covers even the robustness sweeps while
// keeping memory flat over 9000-quantum runs.
const DefaultCacheSize = 512

// allocEntry is one memoized equilibrium: the exact grants and outcome
// computed for one request vector. Entries form a doubly-linked list
// in recency order (head = most recently used).
type allocEntry struct {
	hash       uint64
	reqs       []Request // private copy, compared bit for bit
	grants     []Grant
	outcome    Outcome
	prev, next *allocEntry
}

// allocCache is a bounded LRU over exact request vectors. The map is
// keyed on a 64-bit hash of the raw IEEE-754 bits of every (Demand,
// StallFrac) pair, and a lookup confirms the hit by comparing the
// stored vector bit for bit, so a hit replays the bit-identical grants
// of the original solve — no warm-start approximation, no tolerance,
// no drift. Two vectors that share a hash evict each other, which
// costs a re-solve and never a wrong answer. Not safe for concurrent
// use; the owning Model serializes access.
type allocCache struct {
	limit      int
	entries    map[uint64]*allocEntry
	head, tail *allocEntry
}

func newAllocCache(limit int) *allocCache {
	return &allocCache{limit: limit, entries: make(map[uint64]*allocEntry)}
}

// hashReqs mixes the exact float64 bit patterns of reqs, in order.
func hashReqs(reqs []Request) uint64 {
	h := uint64(len(reqs))
	for _, r := range reqs {
		h = mix64(h ^ math.Float64bits(float64(r.Demand)))
		h = mix64(h ^ math.Float64bits(r.StallFrac))
	}
	return h
}

func mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>32
}

// sameBits reports whether a and b hold bit-for-bit equal requests, in
// order.
func sameBits(a, b []Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i].Demand)) != math.Float64bits(float64(b[i].Demand)) ||
			math.Float64bits(a[i].StallFrac) != math.Float64bits(b[i].StallFrac) {
			return false
		}
	}
	return true
}

// get returns the entry for reqs and promotes it to most-recent, or
// nil. Consecutive micro-steps usually repeat one vector, so the
// most recent entry is checked before hashing.
func (c *allocCache) get(reqs []Request) *allocEntry {
	if c.head != nil && sameBits(c.head.reqs, reqs) {
		return c.head
	}
	e := c.entries[hashReqs(reqs)]
	if e == nil || !sameBits(e.reqs, reqs) {
		return nil
	}
	c.moveToFront(e)
	return e
}

// put inserts a new entry for reqs, replacing an entry with the same
// hash and otherwise evicting the least recently used entry once the
// cache is full. grants must be a private copy.
func (c *allocCache) put(reqs []Request, grants []Grant, out Outcome) {
	h := hashReqs(reqs)
	old := c.entries[h]
	if old == nil && len(c.entries) >= c.limit {
		old = c.tail
		delete(c.entries, old.hash)
	}
	if old != nil {
		c.unlink(old)
	}
	e := &allocEntry{hash: h, reqs: append([]Request(nil), reqs...), grants: grants, outcome: out}
	c.entries[h] = e
	c.pushFront(e)
}

// Len returns the number of cached equilibria.
func (c *allocCache) Len() int { return len(c.entries) }

func (c *allocCache) pushFront(e *allocEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *allocCache) moveToFront(e *allocEntry) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

// unlink removes e from the recency list; the map entry stays.
func (c *allocCache) unlink(e *allocEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
}
