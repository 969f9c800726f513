// Package cache models the processor cache hierarchy: split 32 KB two-way
// L1 instruction and data caches and a unified 512 KB two-way L2, all with
// 128-byte lines, as configured for the FLASH machine in the paper.
//
// Caches are indexed by global logical line (mem.GLine) rather than physical
// address. Correctness under sharing and page movement is preserved by two
// validity stamps carried in every cache entry:
//
//   - a line version, bumped whenever any processor writes the line, which
//     invalidates all other cached copies (directory-based invalidation
//     coherence at line grain);
//   - a page epoch, bumped whenever the kernel migrates or collapses the
//     page, which invalidates every cached line of the page (the physical
//     copy moved, so physically-tagged caches would refetch).
//
// Replication does not bump the epoch: processors still mapped to the master
// keep hitting their cached lines, exactly as on real hardware where the
// master's physical address is unchanged.
package cache

import "ccnuma/internal/mem"

// Validity holds the stamps cache entries are checked against: one line
// version per line and one epoch per page, in flat machine-wide tables
// indexed by global line and page. One Validity instance is shared by every
// cache in the machine.
//
// Releasing a page does not reset its stamps: cached entries carrying the
// old version/epoch pairs may outlive the residence, and resetting the
// stamps would let such a stale entry re-validate against a fresh zero
// epoch.
type Validity struct {
	lineVersion []uint32 // mem.LinesPerPage entries per page
	pageEpoch   []uint32
}

// NewValidity sizes the stamp tables for pages logical pages. The node
// count does not shape the tables; it is accepted so callers describe the
// machine the same way everywhere.
func NewValidity(pages, nodes int) *Validity {
	return &Validity{
		lineVersion: make([]uint32, pages*mem.LinesPerPage),
		pageEpoch:   make([]uint32, pages),
	}
}

// Assign records that page p's master copy now lives on node. The flat
// tables are machine-wide, so there is nothing to move: stamps are never
// disturbed by where a page lives. Kept for callers that place pages
// explicitly before replaying references.
func (v *Validity) Assign(p mem.GPage, node mem.NodeID) {}

// LineVersion returns the current version of a line.
//
//numalint:hotpath
func (v *Validity) LineVersion(l mem.GLine) uint32 { return v.lineVersion[l] }

// BumpLine registers a write to the line and returns the new version. Every
// cached copy with an older version becomes stale.
//
//numalint:hotpath
func (v *Validity) BumpLine(l mem.GLine) uint32 {
	v.lineVersion[l]++
	return v.lineVersion[l]
}

// PageEpoch returns the current placement epoch of a page.
//
//numalint:hotpath
func (v *Validity) PageEpoch(p mem.GPage) uint32 { return v.pageEpoch[p] }

// BumpPage registers a migration, collapse, or release of the page,
// invalidating all cached lines of the page machine-wide.
func (v *Validity) BumpPage(p mem.GPage) { v.pageEpoch[p]++ }
