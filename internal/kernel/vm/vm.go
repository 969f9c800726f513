// Package vm is the kernel's virtual-memory model, reproducing the IRIX 5.2
// structures the paper modified (Section 4): per-process page tables whose
// entries point at physical frames, a logical→physical mapping with replica
// chains hung off the master copy, back-mappings from a page to every
// process that maps it, and the read-only protection that makes the first
// store to a replicated page trap into the collapse path.
//
// Pages are identified by mem.GPage (a machine-wide logical page id), so the
// hash table of IRIX becomes a direct-indexed table here; replica chains are
// small per-page slices. The structure and invariants are the same:
//
//   - exactly one master copy per resident page;
//   - at most one replica per node, never on the master's node;
//   - a process's pte always points at exactly one copy in the page's chain;
//   - Mappers (the back-map) lists exactly the processes with a valid pte.
package vm

import (
	"errors"
	"fmt"

	"ccnuma/internal/cache"
	"ccnuma/internal/kernel/alloc"
	"ccnuma/internal/mem"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// PTE is one page-table entry.
type PTE struct {
	PFN   mem.PFN
	RO    bool
	Valid bool
}

// PageFlags describe per-page placement constraints.
type PageFlags uint8

const (
	// Wired pages (kernel code and data) are never migrated or replicated;
	// IRIX maps the kernel untranslated, outside the policy's reach.
	Wired PageFlags = 1 << iota
	// Code marks instruction pages (used by statistics and by the
	// replicate-code-on-first-touch ablation).
	Code
)

// Replica is one additional copy of a page.
type Replica struct {
	Node mem.NodeID
	PFN  mem.PFN
}

// PageInfo is the per-logical-page placement record (the pfd chain).
type PageInfo struct {
	Master   mem.PFN // NoFrame until first touch
	Replicas []Replica
	Mappers  []mem.ProcID // back-map: processes with a valid pte
	Flags    PageFlags
	// MigCount counts migrations within the current reset interval (the
	// policy's migrate counter).
	MigCount uint8
	// TransitUntil marks the page locked by an in-flight pager operation;
	// references before this time take the transient-page fault.
	TransitUntil sim.Time
	// EverReplicated feeds the space-overhead statistics.
	EverReplicated bool
}

// Placer chooses the home node for a page's first touch. pref is the node of
// the touching CPU. FirstTouch and RoundRobin implement the paper's static
// baselines.
type Placer func(page mem.GPage, pref mem.NodeID) mem.NodeID

// FirstTouch places the page on the toucher's node (the CC-NUMA default the
// paper compares against).
func FirstTouch(_ mem.GPage, pref mem.NodeID) mem.NodeID { return pref }

// RoundRobin places pages node = page mod nodes, equivalent to random
// allocation (the RR baseline).
func RoundRobin(nodes int) Placer {
	return func(page mem.GPage, _ mem.NodeID) mem.NodeID {
		return mem.NodeID(int(page) % nodes)
	}
}

// VM is the machine-wide virtual-memory state.
type VM struct {
	nodes int
	alloc *alloc.Allocator
	val   *cache.Validity
	place Placer
	// Locate reports the node a process is currently running on; replication
	// uses it to point each pte at the nearest copy (pager step 8).
	Locate func(mem.ProcID) mem.NodeID
	// Obs, when enabled, receives a typed event for every page-placement
	// state change (migration, replication, collapse, reclaim), whatever
	// path caused it — pager ops, write traps, pressure reclaim, or the
	// first-touch code-replication ablation. The VM is the single point all
	// those paths converge on, so instrumenting it here catches them all.
	Obs *obs.Tracer

	pages []PageInfo
	ptes  [][]PTE // [proc][gpage]; nil for free proc slots
	freeP []mem.ProcID
	// views[n] is node n's replica view (see nodeview.go): the lazy-deleted
	// min-heap answering "lowest page with a replica on n" without a
	// machine-wide scan.
	views []replicaView

	faults       uint64
	remaps       uint64
	collapses    uint64
	migrates     uint64
	replics      uint64
	allocRetries uint64
}

// New builds the VM for pages logical pages over the given allocator and
// cache-validity tables. place decides first-touch placement.
func New(pages, nodes int, a *alloc.Allocator, val *cache.Validity, place Placer) *VM {
	if place == nil {
		place = FirstTouch
	}
	v := &VM{
		nodes: nodes,
		alloc: a,
		val:   val,
		place: place,
		pages: make([]PageInfo, pages),
		views: make([]replicaView, nodes),
		Locate: func(mem.ProcID) mem.NodeID {
			return 0
		},
	}
	for i := range v.pages {
		v.pages[i].Master = mem.NoFrame
	}
	return v
}

// Pages returns the number of logical pages.
func (v *VM) Pages() int { return len(v.pages) }

// Page returns the placement record for page p.
func (v *VM) Page(p mem.GPage) *PageInfo { return &v.pages[p] }

// SetFlags ORs flags into page p's flags.
func (v *VM) SetFlags(p mem.GPage, f PageFlags) { v.pages[p].Flags |= f }

// AddProcess allocates a process slot (reusing freed slots) with an empty
// page table.
func (v *VM) AddProcess() mem.ProcID {
	if n := len(v.freeP); n > 0 {
		id := v.freeP[n-1]
		v.freeP = v.freeP[:n-1]
		v.ptes[id] = make([]PTE, len(v.pages))
		return id
	}
	v.ptes = append(v.ptes, make([]PTE, len(v.pages)))
	return mem.ProcID(len(v.ptes) - 1)
}

// RemoveProcess tears down a process: every valid pte is invalidated (and
// the back-maps updated) and the slot is recycled.
func (v *VM) RemoveProcess(proc mem.ProcID) {
	tbl := v.ptes[proc]
	for p := range tbl {
		if tbl[p].Valid {
			v.unmap(proc, mem.GPage(p))
		}
	}
	v.ptes[proc] = nil
	v.freeP = append(v.freeP, proc)
}

// PTE returns process proc's entry for page p.
func (v *VM) PTE(proc mem.ProcID, p mem.GPage) PTE { return v.ptes[proc][p] }

// FaultKind classifies the work a Touch had to do.
type FaultKind int

const (
	// NoFault: the pte was already valid.
	NoFault FaultKind = iota
	// FirstTouchFault: the page had no master yet; one was allocated.
	FirstTouchFault
	// MapFault: the page was resident but this process had no mapping.
	MapFault
)

// Touch resolves process proc's access to page p from a CPU on node pref,
// faulting in a mapping if needed. It returns the pte to load into the TLB.
// A first touch allocates the master via the placement policy (falling back
// to other nodes only if the chosen node is full, so the workload itself
// never fails).
func (v *VM) Touch(proc mem.ProcID, p mem.GPage, pref mem.NodeID) (PTE, FaultKind) {
	tbl := v.ptes[proc]
	if tbl[p].Valid {
		return tbl[p], NoFault
	}
	pi := &v.pages[p]
	kind := MapFault
	if pi.Master == mem.NoFrame {
		node := v.place(p, pref)
		f, err := v.allocRetry(node)
		if err != nil {
			panic(fmt.Sprintf("vm: machine out of memory touching page %d: %v", p, err))
		}
		pi.Master = f
		kind = FirstTouchFault
	}
	pfn := v.nearest(pi, pref)
	ro := len(pi.Replicas) > 0
	tbl[p] = PTE{PFN: pfn, RO: ro, Valid: true}
	pi.Mappers = append(pi.Mappers, proc)
	v.faults++
	return tbl[p], kind
}

// allocRetry allocates a base frame near node, retrying transient injected
// failures: the fault handler sleeps on the allocator rather than killing
// the workload. Genuine machine-wide exhaustion (ErrNoFrames) — or a
// transient-failure storm long enough to look like one — still surfaces.
func (v *VM) allocRetry(node mem.NodeID) (mem.PFN, error) {
	for tries := 0; ; tries++ {
		f, err := v.alloc.AllocAnywhere(node, alloc.Base)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, alloc.ErrTransient) || tries >= 16 {
			return mem.NoFrame, err
		}
		v.allocRetries++
	}
}

func (v *VM) nearest(pi *PageInfo, node mem.NodeID) mem.PFN {
	for _, r := range pi.Replicas {
		if r.Node == node {
			return r.PFN
		}
	}
	return pi.Master
}

// NearestCopy returns the page's copy closest to node (a replica on that
// node, otherwise the master).
func (v *VM) NearestCopy(p mem.GPage, node mem.NodeID) mem.PFN {
	return v.nearest(&v.pages[p], node)
}

// MasterNode returns the node holding the page's master copy.
func (v *VM) MasterNode(p mem.GPage) mem.NodeID {
	return v.alloc.NodeOf(v.pages[p].Master)
}

// HasReplicaOn reports whether the page has a copy (master or replica) on
// node.
func (v *VM) HasReplicaOn(p mem.GPage, node mem.NodeID) bool {
	pi := &v.pages[p]
	if pi.Master != mem.NoFrame && v.alloc.NodeOf(pi.Master) == node {
		return true
	}
	for _, r := range pi.Replicas {
		if r.Node == node {
			return true
		}
	}
	return false
}

func (v *VM) unmap(proc mem.ProcID, p mem.GPage) {
	tbl := v.ptes[proc]
	if !tbl[p].Valid {
		return
	}
	tbl[p] = PTE{}
	pi := &v.pages[p]
	for i, m := range pi.Mappers {
		if m == proc {
			pi.Mappers = append(pi.Mappers[:i], pi.Mappers[i+1:]...)
			break
		}
	}
}

// Migrate moves page p's master to frame newF (already allocated by the
// pager on the destination node), freeing the old frame, rewriting every
// mapper's pte, and invalidating cached lines of the page (the physical copy
// moved). Pages with replicas cannot migrate; collapse first.
func (v *VM) Migrate(p mem.GPage, newF mem.PFN) error {
	pi := &v.pages[p]
	if pi.Master == mem.NoFrame {
		return fmt.Errorf("vm: migrate of non-resident page %d", p)
	}
	if len(pi.Replicas) > 0 {
		return fmt.Errorf("vm: migrate of replicated page %d", p)
	}
	if pi.Flags&Wired != 0 {
		return fmt.Errorf("vm: migrate of wired page %d", p)
	}
	old := pi.Master
	pi.Master = newF
	for _, m := range pi.Mappers {
		v.ptes[m][p].PFN = newF
	}
	v.alloc.Free(old)
	if pi.MigCount < ^uint8(0) {
		pi.MigCount++
	}
	// The master moved nodes: the epoch bump invalidates every cached line
	// of the page.
	v.val.BumpPage(p)
	v.migrates++
	if v.Obs.On() {
		e := obs.NewEvent(obs.KindPageMigrated)
		e.Page = int64(p)
		e.From = int(v.alloc.NodeOf(old))
		e.To = int(v.alloc.NodeOf(newF))
		e.Node = e.To
		v.Obs.EmitNow(e)
	}
	return nil
}

// Replicate adds a copy of page p on frame newF (allocated by the pager on
// the replica's node). All ptes become read-only, and every mapper's pte is
// re-pointed at the copy nearest the node its process currently runs on
// (pager step 8).
func (v *VM) Replicate(p mem.GPage, newF mem.PFN) error {
	pi := &v.pages[p]
	node := v.alloc.NodeOf(newF)
	if pi.Master == mem.NoFrame {
		return fmt.Errorf("vm: replicate of non-resident page %d", p)
	}
	if pi.Flags&Wired != 0 {
		return fmt.Errorf("vm: replicate of wired page %d", p)
	}
	if v.HasReplicaOn(p, node) {
		return fmt.Errorf("vm: page %d already has a copy on node %d", p, node)
	}
	pi.Replicas = append(pi.Replicas, Replica{Node: node, PFN: newF})
	v.views[node].push(p)
	pi.EverReplicated = true
	for _, m := range pi.Mappers {
		pt := &v.ptes[m][p]
		pt.RO = true
		pt.PFN = v.nearest(pi, v.Locate(m))
	}
	v.replics++
	if v.Obs.On() {
		e := obs.NewEvent(obs.KindPageReplicated)
		e.Page = int64(p)
		e.From = int(v.alloc.NodeOf(pi.Master))
		e.To = int(node)
		e.Node = e.To
		e.N = len(pi.Replicas)
		v.Obs.EmitNow(e)
	}
	return nil
}

// Collapse removes all replicas of page p, keeping the copy on keepNode if
// one exists (otherwise the master), restoring writable ptes, and
// invalidating cached lines (dropped copies disappear). It returns the
// number of frames freed.
func (v *VM) Collapse(p mem.GPage, keepNode mem.NodeID) int {
	pi := &v.pages[p]
	if len(pi.Replicas) == 0 {
		return 0
	}
	keep := pi.Master
	for _, r := range pi.Replicas {
		if r.Node == keepNode {
			keep = r.PFN
			break
		}
	}
	freed := 0
	if keep != pi.Master {
		v.alloc.Free(pi.Master)
		freed++
		pi.Master = keep
	}
	for _, r := range pi.Replicas {
		if r.PFN != keep {
			v.alloc.Free(r.PFN)
			freed++
		}
	}
	pi.Replicas = pi.Replicas[:0]
	for _, m := range pi.Mappers {
		pt := &v.ptes[m][p]
		pt.PFN = keep
		pt.RO = false
	}
	v.val.BumpPage(p)
	v.collapses++
	if v.Obs.On() {
		e := obs.NewEvent(obs.KindReplicaCollapsed)
		e.Page = int64(p)
		e.Node = int(v.alloc.NodeOf(keep))
		e.N = freed
		v.Obs.EmitNow(e)
	}
	return freed
}

// Remap points process proc's pte at the page's copy nearest to node — the
// cheap action when a hot page already has a local replica.
func (v *VM) Remap(proc mem.ProcID, p mem.GPage, node mem.NodeID) {
	tbl := v.ptes[proc]
	if !tbl[p].Valid {
		return
	}
	tbl[p].PFN = v.nearest(&v.pages[p], node)
	v.remaps++
}

// ReclaimReplicaOn frees one replica residing on node n (memory-pressure
// response: replicated pages are reclaimed preferentially). It returns the
// reclaimed page and true when a replica was found and freed; the pager's
// drain sweep uses the page to cover the eviction with a TLB flush. The
// node's replica view answers the query — the lowest-numbered page holding a
// replica on n, exactly what the machine-wide scan this replaces returned —
// with stale view entries (collapsed or released since their push) discarded
// along the way.
func (v *VM) ReclaimReplicaOn(n mem.NodeID) (mem.GPage, bool) {
	rv := &v.views[n]
	for {
		p, ok := rv.peek()
		if !ok {
			return 0, false
		}
		pi := &v.pages[p]
		idx := -1
		for i, r := range pi.Replicas {
			if r.Node == n {
				idx = i
				break
			}
		}
		if idx < 0 {
			rv.pop() // stale: the replica vanished since the entry was pushed
			continue
		}
		r := pi.Replicas[idx]
		pi.Replicas = append(pi.Replicas[:idx], pi.Replicas[idx+1:]...)
		rv.pop()
		for _, m := range pi.Mappers {
			pt := &v.ptes[m][p]
			pt.PFN = v.nearest(pi, v.Locate(m))
			pt.RO = len(pi.Replicas) > 0
		}
		v.alloc.Free(r.PFN)
		v.val.BumpPage(p)
		if v.Obs.On() {
			e := obs.NewEvent(obs.KindReplicaReclaimed)
			e.Page = int64(p)
			e.Node = int(n)
			e.N = 1
			v.Obs.EmitNow(e)
		}
		return p, true
	}
}

// ReleasePage frees every copy of page p and invalidates all mappings (used
// when a process's private pages die with it).
func (v *VM) ReleasePage(p mem.GPage) {
	pi := &v.pages[p]
	for len(pi.Mappers) > 0 {
		v.unmap(pi.Mappers[len(pi.Mappers)-1], p)
	}
	for _, r := range pi.Replicas {
		v.alloc.Free(r.PFN)
	}
	pi.Replicas = nil
	if pi.Master != mem.NoFrame {
		v.alloc.Free(pi.Master)
		pi.Master = mem.NoFrame
	}
	pi.MigCount = 0
	v.val.BumpPage(p)
}

// Wire pre-allocates page p's master on node n and marks it wired. Kernel
// regions are wired at boot.
func (v *VM) Wire(p mem.GPage, n mem.NodeID) {
	pi := &v.pages[p]
	if pi.Master != mem.NoFrame {
		panic(fmt.Sprintf("vm: wiring resident page %d", p))
	}
	f, err := v.allocRetry(n)
	if err != nil {
		panic(fmt.Sprintf("vm: out of memory wiring kernel page: %v", err))
	}
	pi.Master = f
	pi.Flags |= Wired
}

// ResetMigCounts zeroes every page's migrate counter (the reset-interval
// event also covers the policy's migrate threshold).
func (v *VM) ResetMigCounts() {
	for i := range v.pages {
		v.pages[i].MigCount = 0
	}
}

// Stats summarises VM activity.
type Stats struct {
	Faults    uint64
	Remaps    uint64
	Migrates  uint64
	Replics   uint64
	Collapses uint64
	// AllocRetries counts first-touch/wire allocations re-tried after a
	// transient injected failure (zero without fault injection).
	AllocRetries uint64
}

// Snapshot returns accumulated VM statistics.
func (v *VM) Snapshot() Stats {
	return Stats{Faults: v.faults, Remaps: v.remaps, Migrates: v.migrates,
		Replics: v.replics, Collapses: v.collapses, AllocRetries: v.allocRetries}
}

// CheckInvariants validates the structural invariants listed in the package
// comment, returning the first violation found.
func (v *VM) CheckInvariants() error {
	for p := range v.pages {
		pi := &v.pages[p]
		seen := map[mem.NodeID]bool{}
		if pi.Master != mem.NoFrame {
			seen[v.alloc.NodeOf(pi.Master)] = true
		}
		for _, r := range pi.Replicas {
			if pi.Master == mem.NoFrame {
				return fmt.Errorf("vm: page %d has replicas but no master", p)
			}
			if v.alloc.NodeOf(r.PFN) != r.Node {
				return fmt.Errorf("vm: page %d replica node mismatch", p)
			}
			if seen[r.Node] {
				return fmt.Errorf("vm: page %d has two copies on node %d", p, r.Node)
			}
			seen[r.Node] = true
			viewed := false
			for _, q := range v.views[r.Node].pages {
				if q == mem.GPage(p) {
					viewed = true
					break
				}
			}
			if !viewed {
				return fmt.Errorf("vm: page %d replica on node %d missing from the node's replica view", p, r.Node)
			}
		}
		for _, m := range pi.Mappers {
			if v.ptes[m] == nil || !v.ptes[m][p].Valid {
				return fmt.Errorf("vm: page %d back-map lists proc %d without a valid pte", p, m)
			}
			pfn := v.ptes[m][p].PFN
			ok := pfn == pi.Master
			for _, r := range pi.Replicas {
				ok = ok || pfn == r.PFN
			}
			if !ok {
				return fmt.Errorf("vm: proc %d pte for page %d points outside the replica chain", m, p)
			}
			if len(pi.Replicas) > 0 && !v.ptes[m][p].RO {
				return fmt.Errorf("vm: page %d replicated but proc %d pte writable", p, m)
			}
		}
	}
	for id, tbl := range v.ptes {
		if tbl == nil {
			continue
		}
		for p := range tbl {
			if !tbl[p].Valid {
				continue
			}
			found := false
			for _, m := range v.pages[p].Mappers {
				if m == mem.ProcID(id) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("vm: proc %d maps page %d but is missing from back-map", id, p)
			}
		}
	}
	return nil
}
