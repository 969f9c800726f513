package cache

import (
	"fmt"

	"ccnuma/internal/mem"
)

// A way's tag is the line it holds, the line with staleBit set once a write
// or a page move has invalidated the copy, or noTag when the way is empty.
// NewValidity refuses machines of 2^31-1 lines or more, so a line never
// reaches staleBit and a stale tag never equals noTag.
const (
	staleBit = uint32(1) << 31
	noTag    = ^uint32(0)
)

// entry is one 4-byte way.
type entry struct {
	tag uint32
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
	name    string
	hits    uint64
	misses  uint64
	stalees uint64 // misses caused by a stale (invalidated) copy
}

// New builds a cache of sizeBytes capacity with the given associativity,
// using mem.LineSize lines, and registers it with val, whose bumps invalidate
// its copies.
func New(name string, sizeBytes, assoc int, val *Validity) *Cache {
	lines := sizeBytes / mem.LineSize
	if lines <= 0 || assoc <= 0 || lines%assoc != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d assoc=%d", name, sizeBytes, assoc))
	}
	sets := lines / assoc
	c := &Cache{sets: sets, assoc: assoc, name: name, ways: make([]entry, lines)}
	// Every realistic geometry has a power-of-two set count; indexing by
	// mask instead of modulo keeps an idiv out of every access.
	if sets&(sets-1) == 0 {
		c.mask, c.pow2 = uint64(sets-1), true
	}
	for i := range c.ways {
		c.ways[i].tag = noTag
	}
	val.caches = append(val.caches, c)
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
// there counts a hit and returns true; anything else changes nothing, so the
// caller can fall back to Lookup with identical state and statistics (Lookup
// then drops a stale way-0 copy).
func (c *Cache) HitMRU(l mem.GLine) bool {
	if c.ways[c.mru(l)].tag == uint32(l) {
		c.hits++
		return true
	}
	return false
}

// Lookup probes the cache for line l. On a hit the entry is refreshed to
// most-recently-used and true is returned. A stale copy counts as a miss
// (the stale copy is dropped).
func (c *Cache) Lookup(l mem.GLine) bool {
	// Way 0 is MRU and takes the overwhelming majority of hits; resolving it
	// first skips the move-to-front shuffle (a no-op at i=0) entirely.
	return c.HitMRU(l) || c.lookupPastMRU(l)
}

// lookupPastMRU is Lookup after a HitMRU miss. Way 0 cannot hold a valid
// copy, but the scan still visits it to drop a stale one.
func (c *Cache) lookupPastMRU(l mem.GLine) bool {
	set, tag := c.set(l), uint32(l)
	for i := range set {
		switch set[i].tag {
		case tag | staleBit: // present but stale: invalidate and miss
			set[i].tag = noTag
			c.misses++
			c.stalees++
			return false
		case tag:
			e := set[i]
			copy(set[1:i+1], set[:i]) // move to MRU
			set[0] = e
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Insert fills a valid copy of line l, filling an invalid way if one exists
// and evicting the LRU way otherwise.
func (c *Cache) Insert(l mem.GLine) {
	set, tag := c.set(l), uint32(l)
	// If already present, stale or not (e.g. write-update after a hit),
	// refresh in place.
	for i := range set {
		if set[i].tag&^staleBit == tag {
			copy(set[1:i+1], set[:i])
			set[0].tag = tag
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
	set[0].tag = tag
}

// invalidate marks a copy of line l stale, if the cache holds one.
func (c *Cache) invalidate(l mem.GLine) {
	set, tag := c.set(l), uint32(l)
	for i := range set {
		if set[i].tag == tag {
			set[i].tag |= staleBit
			return
		}
	}
}

// Contains reports presence of a currently-valid copy without touching LRU
// state or statistics. Tests use it to look into a cache.
func (c *Cache) Contains(l mem.GLine) bool {
	set, tag := c.set(l), uint32(l)
	for i := range set {
		if set[i].tag == tag {
			return true
		}
	}
	return false
}
