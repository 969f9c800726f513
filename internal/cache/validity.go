// Package cache models the processor cache hierarchy: split 32 KB two-way
// L1 instruction and data caches and a unified 512 KB two-way L2, all with
// 128-byte lines, as configured for the FLASH machine in the paper.
//
// Caches are indexed by global logical line (mem.GLine) rather than physical
// address. Correctness under sharing and page movement is kept the way
// FLASH's directory keeps it, by invalidating cached copies eagerly:
//
//   - a write to a line marks every other cached copy of the line stale
//     (directory-based invalidation coherence at line grain);
//   - a migration or collapse of a page marks every cached line of the page
//     stale machine-wide (the physical copy moved, so physically-tagged
//     caches would refetch).
//
// Replication invalidates nothing: processors still mapped to the master
// keep hitting their cached lines, exactly as on real hardware where the
// master's physical address is unchanged.
package cache

import (
	"fmt"

	"ccnuma/internal/mem"
)

// Validity is the machine's invalidation fabric: the list of every cache
// built on it, which BumpLine and BumpPage mark stale copies in. One Validity
// instance is shared by every cache in the machine. It holds nothing per
// line or per page.
type Validity struct {
	caches []*Cache
}

// maxLines bounds the lines a machine may have: a cache way holds its line
// as a uint32 tag, staleBit marks a stale copy, and ^uint32(0) marks an
// empty way, so every line must stay below 2^31-1.
const maxLines = 1<<31 - 1

// NewValidity builds the fabric for a machine of pages logical pages. The
// node count plays no part; it is accepted so callers describe the machine
// the same way everywhere. It panics when the machine would hold maxLines
// lines or more.
func NewValidity(pages, nodes int) *Validity {
	if uint64(pages) > maxLines/mem.LinesPerPage { // a negative count wraps high
		panic(fmt.Sprintf("cache: %d pages hold %d lines or more", pages, uint64(maxLines)))
	}
	return &Validity{}
}

// Assign records that page p's master copy now lives on node. Validity is
// never disturbed by where a page lives, so there is nothing to do. Kept
// for callers that place pages explicitly before replaying references.
func (v *Validity) Assign(p mem.GPage, node mem.NodeID) {}

// BumpLine registers a write to the line: every cached copy of it becomes
// stale. The writer refreshes its own copies with Insert afterwards.
func (v *Validity) BumpLine(l mem.GLine) {
	for _, c := range v.caches {
		c.invalidate(l)
	}
}

// BumpPage registers a migration, collapse, or release of the page,
// invalidating all cached lines of the page machine-wide.
func (v *Validity) BumpPage(p mem.GPage) {
	for i := 0; i < mem.LinesPerPage; i++ {
		v.BumpLine(p.Line(i))
	}
}
