// Package tlb models a per-CPU translation lookaside buffer. The paper's
// machine has 64-entry software-reloaded TLBs; TLB misses are both a cost
// (the software refill) and one of the candidate information sources for the
// migration/replication policy (Section 8.3).
//
// Entries are tagged with an address-space id, so context switches need no
// flush; TLB shootdowns (pager step 6) flush the whole TLB, as the IRIX
// implementation in the paper does.
//
// The entry also carries the read-only protection bit. Replicated pages are
// mapped read-only, so the first store after a replication traps through the
// TLB entry and vectors to the page-collapse path — the exact mechanism of
// the paper's pfault handler.
package tlb

import (
	"fmt"

	"ccnuma/internal/mem"
)

type entry struct {
	page  mem.GPage
	asid  mem.ProcID
	pfn   mem.PFN
	ro    bool
	valid bool
}

// TLB is a set-associative translation buffer. Construct with New.
type TLB struct {
	sets   int
	assoc  int
	mask   uint32 // sets-1 when sets is a power of two
	pow2   bool
	ways   []entry // way 0 of a set is MRU
	hits   uint64
	misses uint64
}

// New builds a TLB with entries total entries and the given associativity.
func New(entries, assoc int) *TLB {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic(fmt.Sprintf("tlb: bad geometry entries=%d assoc=%d", entries, assoc))
	}
	t := &TLB{sets: entries / assoc, assoc: assoc, ways: make([]entry, entries)}
	// Power-of-two set counts (the realistic case) index by mask, keeping an
	// idiv out of every translation.
	if t.sets&(t.sets-1) == 0 {
		t.mask, t.pow2 = uint32(t.sets-1), true
	}
	return t
}

// Stats returns cumulative hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// mru returns the index in ways of way 0 of page p's set.
func (t *TLB) mru(p mem.GPage) int {
	if t.pow2 {
		return int(uint32(p)&t.mask) * t.assoc
	}
	return int(uint32(p)%uint32(t.sets)) * t.assoc
}

func (t *TLB) set(p mem.GPage) []entry {
	i := t.mru(p)
	return t.ways[i : i+t.assoc]
}

// HitMRU probes only the MRU way (way 0) of page p's set. On a hit it
// counts the hit and returns the frame; on a miss it changes nothing, so the
// caller can fall back to Lookup with identical state and statistics. The
// protection bit is not returned: the fast read path, its one caller, needs
// only the frame.
func (t *TLB) HitMRU(asid mem.ProcID, p mem.GPage) (pfn mem.PFN, ok bool) {
	if e := &t.ways[t.mru(p)]; e.valid && e.page == p && e.asid == asid {
		t.hits++
		return e.pfn, true
	}
	return mem.NoFrame, false
}

// Lookup probes for a translation of page p in address space asid. On a hit
// it returns the frame and protection; on a miss ok is false and the caller
// models the software refill.
func (t *TLB) Lookup(asid mem.ProcID, p mem.GPage) (pfn mem.PFN, ro bool, ok bool) {
	set := t.set(p)
	// MRU (way 0) takes most hits; answering it before the scan skips the
	// move-to-front copy, which is a no-op at way 0 anyway.
	if pfn, ok := t.HitMRU(asid, p); ok {
		return pfn, set[0].ro, true
	}
	for i := 1; i < len(set); i++ {
		if set[i].valid && set[i].page == p && set[i].asid == asid {
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			t.hits++
			return e.pfn, e.ro, true
		}
	}
	t.misses++
	return mem.NoFrame, false, false
}

// Insert installs a translation, evicting the set's LRU entry.
func (t *TLB) Insert(asid mem.ProcID, p mem.GPage, pfn mem.PFN, ro bool) {
	set := t.set(p)
	for i := range set {
		if set[i].valid && set[i].page == p && set[i].asid == asid {
			copy(set[1:i+1], set[:i])
			set[0] = entry{page: p, asid: asid, pfn: pfn, ro: ro, valid: true}
			return
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = entry{page: p, asid: asid, pfn: pfn, ro: ro, valid: true}
}

// FlushAll invalidates every entry (a TLB shootdown).
func (t *TLB) FlushAll() {
	for i := range t.ways {
		t.ways[i].valid = false
	}
}

// FlushPage invalidates all translations of page p across address spaces.
func (t *TLB) FlushPage(p mem.GPage) {
	set := t.set(p)
	for i := range set {
		if set[i].valid && set[i].page == p {
			set[i].valid = false
		}
	}
}

// HoldsPage reports whether any valid entry translates page p. The
// TrackTLBHolders ablation uses this to flush only the TLBs that actually
// hold a mapping.
func (t *TLB) HoldsPage(p mem.GPage) bool {
	set := t.set(p)
	for i := range set {
		if set[i].valid && set[i].page == p {
			return true
		}
	}
	return false
}

// Valid returns the number of valid entries (test helper).
func (t *TLB) Valid() int {
	n := 0
	for i := range t.ways {
		if t.ways[i].valid {
			n++
		}
	}
	return n
}
