package cache

import (
	"fmt"

	"ccnuma/internal/mem"
)

// noTag marks an empty way. NewValidity refuses tables of 2^32-1 lines or
// more, so no line the caches can hold truncates to it.
const noTag = ^uint32(0)

// entry is one 8-byte way; stamp is Validity.stamp of the line at fill time.
type entry struct {
	tag   uint32 // uint32(line), or noTag
	stamp uint32
}

// Cache is one set-associative cache level. It is a behavioural model: it
// tracks only presence and validity, not data. The zero value is not usable;
// construct with New.
type Cache struct {
	sets    int
	assoc   int
	mask    uint64 // sets-1 when sets is a power of two
	pow2    bool
	ways    []entry // sets*assoc, way 0 of a set is most recently used
	val     *Validity
	name    string
	hits    uint64
	misses  uint64
	stalees uint64 // misses caused by a stale (invalidated) copy
}

// New builds a cache of sizeBytes capacity with the given associativity,
// using mem.LineSize lines, validated against val.
func New(name string, sizeBytes, assoc int, val *Validity) *Cache {
	lines := sizeBytes / mem.LineSize
	if lines <= 0 || assoc <= 0 || lines%assoc != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d assoc=%d", name, sizeBytes, assoc))
	}
	sets := lines / assoc
	c := &Cache{sets: sets, assoc: assoc, val: val, name: name,
		ways: make([]entry, lines)}
	// Every realistic geometry has a power-of-two set count; indexing by
	// mask instead of modulo keeps an idiv out of every access.
	if sets&(sets-1) == 0 {
		c.mask, c.pow2 = uint64(sets-1), true
	}
	for i := range c.ways {
		c.ways[i].tag = noTag
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Stats returns cumulative hit, miss, and stale-copy-miss counts.
func (c *Cache) Stats() (hits, misses, stale uint64) {
	return c.hits, c.misses, c.stalees
}

// mru returns the index in ways of way 0 of line l's set.
func (c *Cache) mru(l mem.GLine) int {
	if c.pow2 {
		return int(uint64(l)&c.mask) * c.assoc
	}
	return int(uint64(l)%uint64(c.sets)) * c.assoc
}

func (c *Cache) set(l mem.GLine) []entry {
	i := c.mru(l)
	return c.ways[i : i+c.assoc]
}

// HitMRU probes only the MRU way (way 0) of line l's set. A valid copy
// there (current stamp) counts a hit and returns true; anything
// else changes nothing, so the caller can fall back to Lookup with identical
// state and statistics (Lookup then drops a stale way-0 copy).
func (c *Cache) HitMRU(l mem.GLine) bool {
	if e := &c.ways[c.mru(l)]; e.tag == uint32(l) && e.stamp == c.val.stamp(l) {
		c.hits++
		return true
	}
	return false
}

// Lookup probes the cache for line l. On a hit the entry is refreshed to
// most-recently-used and true is returned. A cached copy whose stamp is out
// of date counts as a miss (the stale copy is dropped).
func (c *Cache) Lookup(l mem.GLine) bool {
	// Way 0 is MRU and takes the overwhelming majority of hits; resolving it
	// first skips the move-to-front shuffle (a no-op at i=0) entirely.
	if c.HitMRU(l) {
		return true
	}
	set, tag := c.set(l), uint32(l)
	if set[0].tag == tag { // present but stale
		set[0].tag = noTag
		c.misses++
		c.stalees++
		return false
	}
	for i := 1; i < len(set); i++ {
		if set[i].tag != tag {
			continue
		}
		if set[i].stamp != c.val.stamp(l) {
			// Stale copy: invalidate and miss.
			set[i].tag = noTag
			c.misses++
			c.stalees++
			return false
		}
		e := set[i]
		copy(set[1:i+1], set[:i]) // move to MRU
		set[0] = e
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Insert fills line l stamped with version and the page's current epoch,
// filling an invalid way if one exists and evicting the LRU way otherwise.
// version must be the line's current version — the post-bump version for
// writes and the unbumped one for read fills — so the recorded stamp is
// Validity.stamp(l) at fill time.
func (c *Cache) Insert(l mem.GLine, version uint32) {
	set := c.set(l)
	e := entry{tag: uint32(l), stamp: version + c.val.pageEpoch[l.Page()]}
	// If already present (e.g. write-update after a hit) refresh in place.
	for i := range set {
		if set[i].tag == e.tag {
			copy(set[1:i+1], set[:i])
			set[0] = e
			return
		}
	}
	// Prefer an invalidated way (left behind by a stale-copy lookup) over
	// evicting a live line.
	victim := len(set) - 1
	for i := range set {
		if set[i].tag == noTag {
			victim = i
			break
		}
	}
	copy(set[1:victim+1], set[:victim])
	set[0] = e
}

// Contains reports presence of a currently-valid copy without touching LRU
// state or statistics. It is used by tests and by the TLB-holder tracking
// ablation.
func (c *Cache) Contains(l mem.GLine) bool {
	set, tag := c.set(l), uint32(l)
	for i := range set {
		if set[i].tag == tag && set[i].stamp == c.val.stamp(l) {
			return true
		}
	}
	return false
}

// Flush empties the cache (used when a process model must simulate a cold
// start after being moved across CPUs).
func (c *Cache) Flush() {
	for i := range c.ways {
		c.ways[i].tag = noTag
	}
}
