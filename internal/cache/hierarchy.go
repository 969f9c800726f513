package cache

import (
	"strconv"

	"ccnuma/internal/mem"
)

// Level is where a reference was satisfied.
type Level int

const (
	// HitL1 means the reference hit the first-level cache (no stall).
	HitL1 Level = iota
	// HitL2 means the reference missed L1 and hit the unified second level.
	HitL2
	// Miss means the reference missed the whole hierarchy and goes to memory.
	Miss
)

// String names the level.
func (lv Level) String() string {
	switch lv {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	default:
		return "memory"
	}
}

// Hierarchy is one CPU's cache stack: split L1 I/D over a unified L2.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	val          *Validity
}

// NewHierarchy builds a CPU cache stack with the given L1 (per side) and L2
// capacities and associativities.
func NewHierarchy(cpu int, l1Size, l1Assoc, l2Size, l2Assoc int, val *Validity) *Hierarchy {
	return &Hierarchy{
		L1I: New(name(cpu, "l1i"), l1Size, l1Assoc, val),
		L1D: New(name(cpu, "l1d"), l1Size, l1Assoc, val),
		L2:  New(name(cpu, "l2"), l2Size, l2Assoc, val),
		val: val,
	}
}

func name(cpu int, level string) string {
	return level + "#" + strconv.Itoa(cpu)
}

// Access runs one reference through the hierarchy, updating cache state
// (fills, LRU, and for writes the invalidation of every other copy) and
// returning the level that satisfied it. Timing is the caller's concern.
func (h *Hierarchy) Access(l mem.GLine, kind mem.AccessKind) Level {
	l1 := h.l1(kind)
	if l1.Lookup(l) {
		if kind.IsWrite() {
			h.val.BumpLine(l)
			l1.Insert(l)
			h.L2.Insert(l) // write-through between L1 and L2
		}
		return HitL1
	}
	return h.pastL1(l1, l, kind)
}

// ReadMissedMRU is Access for a read whose L1 way-0 probe (Cache.HitMRU)
// has just missed. It resumes the L1 lookup past that probe, which is exact
// because a failed probe changes nothing.
func (h *Hierarchy) ReadMissedMRU(l mem.GLine, kind mem.AccessKind) Level {
	l1 := h.l1(kind)
	if l1.lookupPastMRU(l) {
		return HitL1
	}
	return h.pastL1(l1, l, kind)
}

func (h *Hierarchy) l1(kind mem.AccessKind) *Cache {
	if kind.IsInstr() {
		return h.L1I
	}
	return h.L1D
}

// pastL1 is Access after an L1 miss.
func (h *Hierarchy) pastL1(l1 *Cache, l mem.GLine, kind mem.AccessKind) Level {
	if h.L2.Lookup(l) {
		if kind.IsWrite() {
			h.val.BumpLine(l)
			h.L2.Insert(l)
		}
		l1.Insert(l)
		return HitL2
	}
	// Full miss: fill both levels.
	if kind.IsWrite() {
		h.val.BumpLine(l)
	}
	h.L2.Insert(l)
	l1.Insert(l)
	return Miss
}
